(** The generation-counted window barrier of {!Engine}, with a
    first-fault slot.

    The coordinator opens a window with {!window}: it publishes the
    horizon, wakes the workers, runs its own partitions and waits until
    every worker has finished the window.  Each worker domain runs
    {!worker}.  An exception in any share of a window — a worker's or
    the coordinator's — is caught, the first one is kept, the window
    still completes its count, and {!window} then raises it as
    {!Partition_fault}; a worker that faulted leaves its loop.  The
    caller stops and joins the workers with {!stop} (e.g. in a
    [Fun.protect ~finally]), so a fault never leaves the run waiting. *)

exception
  Partition_fault of {
    partitions : int list;  (** the faulting share's partitions *)
    window : int;  (** 0-based index of the window it faulted in *)
    exn : exn;
    backtrace : string;  (** empty unless backtraces are recorded *)
  }

type t

val create : workers:int -> t
(** A barrier for [workers] worker domains besides the coordinator. *)

val worker : t -> partitions:int list -> (float -> unit) -> unit
(** [worker b ~partitions run] is a worker domain's loop: for each
    window, [run until] runs this worker's [partitions] up to the
    window's horizon.  Returns after {!stop}, or after its own fault. *)

val window : t -> partitions:int list -> until:float -> (float -> unit) -> unit
(** Runs one window to horizon [until]: the coordinator's own share is
    [run until] over [partitions].  Raises {!Partition_fault} with the
    window's first fault. *)

val stop : t -> unit
(** Tells every worker to leave its loop; join them afterwards. *)
