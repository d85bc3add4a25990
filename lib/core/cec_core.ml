(** Library interface: the proof-stitching equivalence checker.
    [Cec_core.Cec.check], [Cec_core.Sweep.run], [Cec_core.Certify]. *)

module Simclass = Simclass
module Sweep = Sweep
module Cec = Cec
module Certify = Certify
