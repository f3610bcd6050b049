(** Config-file-driven experiments: parse a JSON scenario, run it, report.

    Lets downstream users run their own sweeps without writing OCaml:

    {[
      {
        "name": "flaky grid",
        "protocol": "bmmb",
        "topology": "grid", "n": 36,
        "gprime": "r-restricted", "r": 3, "extra": 12,
        "k": 5, "fack": 20, "fprog": 1,
        "scheduler": "adversarial",
        "arrivals": "batch",
        "check": true, "repeat": 3, "seed": 1
      }
    ]}

    Protocols: ["bmmb"] (standard model; arrivals [batch]/[poisson]/
    [staggered]), ["fmmb"] (enhanced model, batch), ["fmmb-online"]
    (enhanced model, any arrivals, k-oblivious).  The accepted topologies,
    G' regimes, schedulers and dynamic kinds are {!topologies},
    {!gprimes}, {!schedulers} and {!dynamic_kinds}; {!validate} holds
    every other constraint. *)

type arrivals =
  | Batch
  | Poisson of float  (** rate *)
  | Staggered of float  (** gap *)

type dyn_spec = {
  dyn_kind : string;  (** ["static" | "flap" | "churn" | "adversary"] *)
  dyn_epoch : float;  (** stability parameter [T] (epoch length) *)
  dyn_period : int;  (** flap half-period, in epochs *)
  dyn_churn : float;  (** per-epoch per-edge drop probability *)
  dyn_seed : int;  (** churn / adversary seed *)
}
(** The resolved [dynamic] sub-object:

    {[ "dynamic": {"kind": "churn", "epoch": 5, "churn": 0.3, "seed": 7} ]}

    Unknown or ill-typed fields are rejected naming the field and the
    vocabulary ([kind, epoch, period, churn, seed]); [kind] must be one
    of [static], [flap], [churn], [adversary]; any [dynamic] requires
    [protocol = "bmmb"].  Sweeps reach inside with dotted params:
    [{"sweep": {"param": "dynamic.epoch", "values": [1, 2, 4]}}]. *)

type spec = {
  name : string;
  protocol : [ `Bmmb | `Fmmb | `Fmmb_online ];
  topology : string;
  n : int;
  gprime : string;
  r : int;
  extra : int;
  k : int;
  fack : float;
  fprog : float;
  seed : int;
  scheduler : string;
  arrivals : arrivals;
  check : bool;
  repeat : int;
  dynamic : dyn_spec option;
  domains : int;
      (** worker domains for the partitioned engine (default 1; must not
          exceed [partitions]) *)
  partitions : int;
      (** partition count P — a model parameter ([0] in the JSON means
          auto: one partition per requested domain; resolved here to
          [>= 1]).  [partitions > 1] routes batch BMMB through
          {!Runner.run_bmmb_pdes} and restricts the spec to the
          "random" scheduler, batch arrivals, and non-adversary
          dynamics. *)
}

type run_result = {
  seed : int;
  complete : bool;
  time : float;
  bound : float option;  (** the applicable exact bound (BMMB batch only) *)
  bcasts : int option;
  mean_latency : float option;  (** online runs *)
  violations : int;  (** compliance violations when [check] *)
  epochs : int option;  (** epoch windows entered (dynamic runs only) *)
}

(** {1 Vocabulary and defaults}

    The lists the validator checks against, in the order error messages
    and the CLI's help text render them. *)

val topologies : string list
val gprimes : string list
val schedulers : string list
val protocols : string list
val dynamic_kinds : string list

val protocol_of_string :
  string -> ([ `Bmmb | `Fmmb | `Fmmb_online ], string) result

val default : spec
(** Every field's default, as a scenario file without the field gets it
    ([partitions = 0], auto, until {!validate} resolves it). *)

val default_dynamic : dyn_spec
(** The defaults of the [dynamic] sub-object's fields. *)

(** {1 The front door} *)

val validate : spec -> (spec, string) result
(** The one check every spec passes before it runs, from a scenario file
    or from [mmb_sim] flags: every vocabulary field is known, every
    numeric field is in range, and the engine ([partitions > 1] selects
    the partitioned one) supports the protocol × scheduler × arrivals ×
    dynamic kind × [check] combination.  An [Error] starts with
    [field "NAME":] and, for an unknown value, lists the vocabulary.
    [Ok] carries the spec with [partitions = 0] resolved to
    [max domains 1]. *)

(** {1 Building blocks} (also used by the CLI) *)

val build_dual :
  topology:string ->
  gprime:string ->
  n:int ->
  r:int ->
  extra:int ->
  seed:int ->
  (Graphs.Dual.t, string) result
(** The regime's draws come from a [seed + 911] stream; a geometric base
    graph is placed from its own [seed + 7321] stream. *)

val build_scheduler : string -> (int Amac.Mac_intf.policy, string) result

val dyn_factory :
  dual:Graphs.Dual.t -> spec -> (unit -> Dyn.Dual.t) option
(** For a validated spec with a [dynamic] sub-object: a factory of fresh
    versioned duals over the base (union) [dual] from {!build_dual} — one
    call for the serial engine, one per partition for the partitioned
    engine. *)

(** {1 Scenario pipeline} *)

val of_json : Dsim.Json.t -> (spec, string) result
(** Parse a scenario object and {!validate} it.  Unknown fields (typos
    otherwise silently swallowed by defaults) are rejected with the full
    field vocabulary. *)

val of_string : string -> (spec, string) result

val load_file : string -> (spec list, string) result
(** Read, parse, validate, and {!expand} a scenario file; every error is
    prefixed with the file name. *)

val spec_to_json : spec -> Dsim.Json.t
(** The fully-resolved spec, every default baked in — a complete content
    address for campaign job keying. *)

val expand : Dsim.Json.t -> (spec list, string) result
(** Like {!of_json}, but honoring an optional sweep directive:
    [{"sweep": {"param": "k", "values": [1, 2, 4]}, ...}] yields one spec
    per value with the parameter overridden (params: any numeric scenario
    field — "n", "k", "r", "extra", "fack", "fprog", "seed", "rate",
    "gap").  Without a sweep, a singleton list. *)

val expand_string : string -> (spec list, string) result

val execute : spec -> (run_result list, string) result
(** {!validate}, then one run per repeat, seeds [spec.seed, spec.seed+1,
    ...]. *)

val report : spec -> run_result list -> string
(** Human-readable table. *)

val result_json : spec -> run_result list -> Dsim.Json.t
(** Machine-readable results (one object per run). *)
