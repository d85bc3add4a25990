(** Library interface: SAT-free functional reduction by cut sweeping. *)

module Cutsweep = Cutsweep
