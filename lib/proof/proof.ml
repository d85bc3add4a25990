(** Library interface: resolution proof store, checkers (materialized
    and streaming), assumption lifting, trimming, statistics, and text
    and binary certificate formats. *)

module Resolution = Resolution
module Checker = Checker
module Lift = Lift
module Trim = Trim
module Pstats = Pstats
module Export = Export
module Binfmt = Binfmt
module Hint_check = Hint_check
module Rup = Rup
module Compress = Compress
