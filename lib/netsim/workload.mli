(** Divide-and-conquer communication workloads over a guest binary tree,
    executed on an arbitrary host through an embedding.

    Each workload is a dependency-driven message protocol between guest
    nodes; guest messages travel between the images of the nodes under the
    placement, so running the same workload on the guest itself (identity
    placement) and on an embedded host measures the {e slowdown} that the
    paper's dilation bounds: constant dilation and bounded congestion give
    constant-factor slowdown. Passing a finite [service_rate] additionally
    charges the computation side of the load factor.

    The protocols are defined once against the {!CORE} interface and
    instantiated by {!Make}; the toplevel values below are
    [Make (Sim)] — the instantiation over the active-set core. The
    equivalence tests and the bench harness also instantiate
    [Make (Sim_ref)] to replay identical workloads on the retained
    reference core. *)

(** The minimal simulator interface a workload needs. Both {!Sim} and
    {!Sim_ref} satisfy it. *)
module type CORE = sig
  type t

  val create : ?link_capacity:int -> ?service_rate:int -> Xt_topology.Graph.t -> t
  val send : t -> src:int -> dst:int -> tag:int -> unit
  val run : t -> on_deliver:(tag:int -> t -> unit) -> int
end

module Make (C : CORE) : sig
  type spec = {
    name : string;
    run : C.t -> place:int array -> tree:Xt_bintree.Bintree.t -> int;
  }

  val reduction : spec
  val broadcast : spec
  val all_reduce : spec
  val pingpong_sweep : spec
  val permutation : spec
  val workloads : spec list
  val guest_graph : Xt_bintree.Bintree.t -> Xt_topology.Graph.t

  val run_native :
    ?link_capacity:int -> ?service_rate:int -> spec -> Xt_bintree.Bintree.t -> int

  val run_embedded :
    ?link_capacity:int -> ?service_rate:int -> spec -> Xt_embedding.Embedding.t -> int

  val run_on :
    ?link_capacity:int -> ?service_rate:int -> spec -> Xt_embedding.Embedding.t -> C.t * int

  val slowdown : spec -> Xt_embedding.Embedding.t -> float
end

type spec = {
  name : string;
  run : Sim.t -> place:int array -> tree:Xt_bintree.Bintree.t -> int;
  (** Drives the protocol on a caller-supplied simulator; returns the
      cycle count. *)
}

val reduction : spec
(** Leaves send to parents; every internal node forwards once all its
    children have arrived (one combine wave, as in parallel reduce). *)

val broadcast : spec
(** The root sends to its children, each node forwards downwards. *)

val all_reduce : spec
(** A reduction followed by a broadcast of the result. *)

val pingpong_sweep : spec
(** Every guest edge, one after another, carries a request/reply pair —
    latency-bound, measures raw dilation without overlap. *)

val permutation : spec
(** Every guest node sends one message to its antipode in id space — a
    fixed derangement unrelated to the tree structure, stressing
    congestion rather than dilation. *)

val workloads : spec list

val guest_graph : Xt_bintree.Bintree.t -> Xt_topology.Graph.t
(** The guest tree as a host graph (identity placement target). *)

val run_native :
  ?link_capacity:int -> ?service_rate:int -> spec -> Xt_bintree.Bintree.t -> int
(** Cycles on the guest tree itself (identity placement). *)

val run_embedded :
  ?link_capacity:int -> ?service_rate:int -> spec -> Xt_embedding.Embedding.t -> int
(** Cycles on the embedding's host. *)

val run_on :
  ?link_capacity:int -> ?service_rate:int -> spec -> Xt_embedding.Embedding.t -> Sim.t * int
(** Like {!run_embedded} but also returns the finished simulator, for
    queue statistics. *)

val slowdown : spec -> Xt_embedding.Embedding.t -> float
(** [run_embedded / run_native] for the embedding's guest. *)

(** {2 Suite replay}

    A batch of independent (workload × tree × host) replays. Each case
    builds its own simulator; cases on one host share only that host's
    route table ({!Xt_topology.Graph.next_hop}). *)

type case = {
  label : string;
  workload : spec;
  tree : Xt_bintree.Bintree.t;
  embedding : Xt_embedding.Embedding.t option;
      (** [None] replays natively on the guest tree itself. The layering
          puts embedding construction above this library, so callers
          supply ready-made embeddings. *)
}

type outcome = {
  case : case;
  cycles : int;
  delivered : int;
  hops : int;      (** total link traversals, [sum link_loads] *)
  max_queue : int;
  max_inbox : int;
  seconds : float; (** wall-clock of this replay alone *)
}

val native_case : ?label:string -> spec -> Xt_bintree.Bintree.t -> case
val embedded_case : ?label:string -> spec -> Xt_embedding.Embedding.t -> case

val run_case : ?link_capacity:int -> ?service_rate:int -> case -> outcome
(** Replay one case on a fresh simulator. *)

val run_suite : ?link_capacity:int -> ?service_rate:int -> case list -> outcome list
(** Replay every case in order, one after another; outcomes in input
    order. *)
