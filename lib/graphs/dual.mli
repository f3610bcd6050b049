(** Dual graphs [(G, G')] with [G ⊆ G'] (Section 2).

    [G] holds the reliable links (the model always delivers over them);
    [G' \ G] holds the unreliable links (the scheduler may or may not
    deliver).  This module provides constructors for every G'-regime the
    paper studies — [G' = G], r-restricted, grey zone, arbitrary — plus the
    two concrete lower-bound networks (Figure 2 and Lemma 3.18). *)

type t = private {
  g : Graph.t;  (** reliable graph G *)
  g' : Graph.t;  (** full graph G' (includes all of G's edges) *)
  embedding : Geometry.point array option;
      (** plane embedding, when the construction is geometric *)
  g'_only : int array array;
      (** derived cache: per-node [G' \ G] neighbors — use
          {!g'_only_neighbors} *)
  reliable_bits : Bytes.t;
      (** derived cache: G-adjacency bitset — use {!is_reliable} *)
}

(** {2 Precomputed-array invariants}

    The two derived caches obey invariants that {!with_g'}'s incremental
    refresh (and [Dyn.Dual] above it) relies on:

    - [g'_only.(u)] is exactly [u]'s G'-neighbors that are not
      G-neighbors, sorted ascending, for every node [u].  Each row is a
      pure function of [(G, G'-row of u)], so a refresh that changes
      G'-adjacency only at a known set of nodes need rebuild only those
      rows and may share the rest physically.
    - [reliable_bits] is a pure function of [G] alone (a symmetric
      G-adjacency bitset, empty above 8192 nodes).  Any refresh that
      keeps [G] fixed — the only kind {!with_g'} permits — may reuse it
      unchanged, which is what keeps {!is_reliable} epoch-invariant for
      time-varying duals. *)

val create : ?embedding:Geometry.point array -> g:Graph.t -> g':Graph.t -> unit -> t
(** Validates [G ⊆ G'] (raises [Invalid_argument] otherwise). *)

val with_g' : t -> g':Graph.t -> dirty:int array -> t
(** [with_g' t ~g' ~dirty] is [t] with its unreliable graph replaced by
    [g'], sharing [G], the embedding, and [reliable_bits] with [t].
    [dirty] must list every node whose G'-adjacency differs between
    [t.g'] and [g']; their [g'_only] rows are rebuilt and all other rows
    are shared physically with [t], so the cost is [O(|dirty| * deg)]
    rather than a full rebuild.  Validates [G ⊆ g'] and that dirty
    indices are in range (raises [Invalid_argument] otherwise).  With a
    complete [dirty] set the result is structurally equal to
    [create ~g:t.g ~g' ()] — the rebuild-equivalence contract
    test/test_dyn.ml checks on randomized churn. *)

val reliable : t -> Graph.t
val unreliable : t -> Graph.t

val unreliable_only_edges : t -> (int * int) list
(** The edges of [G' \ G]. *)

val g'_only_neighbors : t -> int -> int array
(** [g'_only_neighbors t u] is [u]'s neighbors over [G' \ G] (i.e. the
    endpoints of its unreliable links), sorted ascending.  Precomputed at
    construction — O(1), and callers must not mutate the returned array. *)

val is_reliable : t -> int -> int -> bool
(** [is_reliable t u v] iff [(u,v) ∈ E(G)].  Backed by an adjacency bitset
    built at construction (for [n] up to 8192; [Graph.mem_edge] beyond),
    so the per-delivery reliability bit costs no binary search.  [false]
    for [u = v] or out-of-range indices. *)

val n : t -> int

val equal_graphs : t -> bool
(** [true] iff [G' = G] (no unreliable links). *)

(** {1 Derived graphs and restrictions} *)

val power : Graph.t -> r:int -> Graph.t
(** [power g ~r] is [G^r]: an edge between every distinct pair at hop
    distance [<= r] in [g] (no self-loops).  Requires [r >= 1]. *)

val restriction_radius : t -> int
(** The smallest [r] such that G' is r-restricted (i.e. the max over
    G'-edges of the endpoints' distance in G); [max_int] if some G'-edge
    joins nodes in different G-components.  [1] without any search when
    {!equal_graphs} holds. *)

val is_r_restricted : t -> r:int -> bool
(** Definitional check: every [(u,v) ∈ E'] has [d_G(u,v) <= r]. *)

val is_grey_zone : t -> c:float -> bool
(** Checks the grey-zone conditions against the stored embedding:
    (1) [(u,v) ∈ E] iff [dist(u,v) <= 1]; (2) [(u,v) ∈ E'] implies
    [dist(u,v) <= c].  [false] when there is no embedding. *)

(** {1 Constructors} *)

val of_equal : Graph.t -> t
(** The [G' = G] regime. *)

val arbitrary_random : Dsim.Rng.t -> g:Graph.t -> extra:int -> t
(** [G] plus [extra] unreliable edges drawn uniformly over non-adjacent
    pairs (the "arbitrary G'" regime of Theorem 3.1). *)

val r_restricted_random : Dsim.Rng.t -> g:Graph.t -> r:int -> extra:int -> t
(** [G] plus up to [extra] unreliable edges drawn uniformly among pairs at
    G-distance in [[2, r]] (so the result is r-restricted by construction;
    fewer than [extra] are added if the candidate set is smaller). *)

val grey_zone_random :
  Dsim.Rng.t ->
  n:int -> width:float -> height:float -> c:float -> p:float ->
  t
(** Geometric grey zone (Section 2): [n] uniform points; [G] is the unit
    disk graph; each pair at distance in [(1, c]] joins [G'] independently
    with probability [p].  The embedding is retained. *)

val of_embedding : points:Geometry.point array -> c:float -> t
(** The dual graph a plane embedding induces: [G] joins pairs at distance
    [<= 1], [G'] additionally joins every pair at distance in [(1, c]] (the
    full grey zone — every uncertain pair is a potential unreliable link).
    The embedding is retained. *)

val grey_zone_connected :
  Dsim.Rng.t ->
  n:int -> width:float -> height:float -> c:float -> p:float ->
  max_tries:int ->
  t
(** Like {!grey_zone_random} but rejection-samples until [G] is connected. *)

(** {1 Lower-bound networks} *)

val two_line : d:int -> t
(** Figure 2's network [C]: two disjoint G-lines
    [a_1 .. a_D] and [b_1 .. b_D], plus unreliable cross edges
    [(a_i, b_{i+1})] and [(b_i, a_{i+1})] for [i < D].  Ships with a plane
    embedding witnessing the paper's remark that [C] is grey-zone
    realizable: [is_grey_zone] holds for every [c >= 1.45].  Requires
    [d >= 2]. *)

val two_line_a : d:int -> int -> int
(** [two_line_a ~d i] is the node index of [a_i] ([1]-based, as in the
    paper). *)

val two_line_b : d:int -> int -> int
(** Node index of [b_i]. *)

val choke : k:int -> t
(** Lemma 3.18's network: a star of [k-1] leaves [u_1..u_{k-1}] centered on
    [u_k], plus a bridge [u_k — v]; [G' = G].  Node [choke_hub] is [u_k] and
    [choke_sink] is [v].  Requires [k >= 1]. *)

val choke_hub : k:int -> int
val choke_sink : k:int -> int

val pp : Format.formatter -> t -> unit
