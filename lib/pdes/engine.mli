(** Horizon-parallel discrete-event engine for BMMB mega runs.

    The dual graph is split into [P] partitions ({!Graphs.Partition}),
    each owning one {!Mega} instance with a private event heap, RNG
    stream, and (for time-varying graphs) dynamic-dual wrapper.  [P] is
    a {e model} parameter: it fixes the execution — instance ids, RNG
    draws, delivery times — once and for all.  [N = domains] only maps
    partitions onto worker domains ([p mod N]), which is why the trace
    and every counter are identical for any [1 <= N <= P].

    Execution proceeds in barrier windows.  The coordinator reads the
    earliest pending timestamp across partitions ([tau]), sets the
    horizon [tau + Fprog], and lets each domain run its partitions up to
    the horizon ({!Dsim.Sim.run}[ ~until]).  [Fprog] is the conservative
    lookahead: {!Mega} floors every cross-partition delivery at
    [bcast + Fprog], so no event executed inside a window can affect
    another partition within that same window.  At the barrier the
    coordinator drains the {!Mailbox} — entries sorted by
    [(time, source partition, append order)] — into the destination
    heaps, whose FIFO-stable ordering then replays them identically on
    every run.

    With [~trace_out], each partition streams its events to a spill file
    ({!Dsim.Trace_io.stream_file}; the in-memory trace retains nothing)
    and the engine finishes with a streaming merge ordered by
    [(time, terminating-event rank, partition, file order)].  Ranking
    [ack]/[abort] after same-time deliveries makes the merged trace pass
    the {!Amac.Compliance} audit, whose receive/ack-correctness rules
    compare trace indices at equal timestamps. *)

exception Domains_exceed_partitions of { domains : int; partitions : int }
(** Raised by {!run} when asked for more worker domains than there are
    partitions to map onto them. *)

type result = {
  complete : bool;  (** every node delivered every message *)
  time : float;  (** completion time ([infinity] when incomplete) *)
  bcasts : int;
  rcvs : int;
  acks : int;
  deliveries : int;
  remote_deliveries : int;  (** deliveries routed through mailboxes *)
  events : int;  (** callbacks executed, summed over partitions *)
  windows : int;  (** barrier windows executed *)
  heap_high_water : int;  (** max pending events in any partition heap *)
  partitions : int;
  domains : int;
  cut_edges : int;  (** G'-edges crossing the partition boundary *)
  part_sizes : int array;
  trace_entries : int;  (** entries in the merged trace (0 without [trace_out]) *)
}

val run :
  dual:Graphs.Dual.t ->
  ?mk_dyn:(unit -> Dyn.Dual.t) ->
  fprog:float ->
  assignment:(int * int) list ->
  seed:int ->
  partitions:int ->
  domains:int ->
  ?trace_out:string ->
  unit ->
  result
(** Runs BMMB to completion.  [mk_dyn], when given, is called once per
    partition to build that partition's private dynamic wrapper (it must
    be deterministic — e.g. close over a schedule spec, not a shared
    mutable schedule).  Partitioning uses the base dual's G'.  Requires
    [partitions >= 1], [1 <= domains], [Fprog > 0]; raises
    {!Domains_exceed_partitions} when [domains > partitions].  With
    [domains >= 2], an exception raised while running a partition is
    re-raised as {!Barrier.Partition_fault} naming the share's
    partitions and the window, after every worker has been joined.  The
    caller is responsible for [Fprog <= Fack] (the engine acks at
    exactly [bcast + Fprog]). *)
