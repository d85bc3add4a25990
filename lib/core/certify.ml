type error = Proof.Checker.error

let pp_error = Proof.Checker.pp_error

let check_leaves (cert : Cec.certificate) miter =
  Proof.Checker.check cert.Cec.proof ~root:cert.Cec.root
    ~leaf_ok:(Cnf.Tseitin.miter_mem miter) ()

let validate (cert : Cec.certificate) = check_leaves cert cert.Cec.miter

(* The leaves are checked against the miter rebuilt from the circuits,
   not the one the certificate carries, so a forged certificate cannot
   smuggle leaves. *)
let validate_against cert a b = check_leaves cert (Aig.Miter.build a b)
