(* Every computation in the library runs on the calling domain. *)
let domain_budget () = 1
