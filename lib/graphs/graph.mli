(** Immutable undirected graphs over nodes [0 .. n-1].

    The representation is a sorted adjacency array, built once from an edge
    list or from per-node rows; lookups are by binary search.  Self-loops are rejected, duplicate
    edges are collapsed. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph on nodes [0..n-1] with the given
    undirected edges.  Raises [Invalid_argument] on out-of-range endpoints or
    self-loops. *)

val of_rows : n:int -> (int -> int array) -> t
(** [of_rows ~n row] builds the graph whose node [u] has the neighbors
    [row u], without an edge list.  The graph takes ownership of each
    returned array (it is sorted and deduplicated in place).  Raises
    [Invalid_argument] on an out-of-range neighbor, a self-loop, or rows
    that are not symmetric ([v] in [row u] but [u] not in [row v]). *)

val empty : n:int -> t
(** Graph with [n] nodes and no edges. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val neighbors : t -> int -> int array
(** Sorted neighbor array of a node.  The returned array is owned by the
    graph: callers must not mutate it. *)

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency (symmetric; false for [u = v]). *)

val edges : t -> (int * int) list
(** All edges, each reported once with the smaller endpoint first. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val iter_nodes : t -> (int -> unit) -> unit

val union : t -> t -> t
(** [union g h] has the edges of both (same node count required). *)

val is_subgraph : sub:t -> super:t -> bool
(** [is_subgraph ~sub ~super] tests that every edge of [sub] is in [super]
    (same node count required, else [false]). *)

val max_degree : t -> int

val pp : Format.formatter -> t -> unit
