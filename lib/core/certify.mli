(** Independent validation of equivalence certificates.

    A {!Cec.certificate} claims: "this resolution proof derives the
    empty clause from the CNF of this miter".  {!validate} re-checks
    every chain and that every leaf is a clause of the certificate's
    own miter.  {!validate_against} closes the loop from circuits to
    proof: it rebuilds the miter from the two circuits and checks the
    leaves against that.  Leaf membership is decided on the miter graph
    ({!Cnf.Tseitin.miter_mem}), so neither builds the miter CNF. *)

type error = Proof.Checker.error

val pp_error : Format.formatter -> error -> unit

(** Check the proof against the certificate's own miter.  Returns the
    number of verified chains. *)
val validate : Cec.certificate -> (int, error) result

(** Check the proof against the miter rebuilt from the circuits.
    @raise Invalid_argument if their interfaces differ. *)
val validate_against : Cec.certificate -> Aig.t -> Aig.t -> (int, error) result
