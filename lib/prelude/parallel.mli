(** The library's domain budget.

    Every computation runs on the calling domain, so the budget is
    always 1. The value is kept for callers that report it next to
    their results. *)

val domain_budget : unit -> int
(** Always [1]. *)
