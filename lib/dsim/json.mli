(** A minimal, dependency-free JSON parser and printer — enough for
    scenario configuration files and trace tooling.

    Supports the full JSON value grammar (objects, arrays, strings with
    escapes, numbers, booleans, null).  Numbers are parsed as [float]
    (JSON's own number model); use {!member_int} for integral fields. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (the error string carries an offset). *)

val to_string : t -> string
(** Compact printing; round-trips through {!parse}. *)

(** {1 Buffer serializer}

    The one rendering behind {!to_string} and every trace and JSONL
    writer: integral numbers with [|f| < 1e15] as integers ([-0.] as
    [-0]), every other number as [%.17g].  Emitters with a fixed key
    order append fields with the [add_*] primitives instead of building
    a {!t}. *)

val to_buffer : Buffer.t -> t -> unit

val add_string : Buffer.t -> string -> unit
(** Quoted and escaped. *)

val add_number : Buffer.t -> float -> unit

val add_decimal : Buffer.t -> int -> unit
(** [string_of_int i], with no intermediate string (for labels). *)

val write_file : path:string -> (out_channel -> unit) -> unit
(** Runs the writer on [path]'s channel and closes it, also on error. *)

val write_jsonl : path:string -> ((t -> unit) -> unit) -> unit
(** [write_jsonl ~path iter]: each value [iter] yields, one per line. *)

val read_file : string -> (string, string) result

(** {1 Accessors} — each returns [Error] naming the missing/mistyped
    field. *)

val member : t -> string -> (t, string) result
val member_opt : t -> string -> t option
val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
val to_bool : t -> (bool, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val member_str : t -> string -> default:string -> (string, string) result
val member_int : t -> string -> default:int -> (int, string) result
val member_float : t -> string -> default:float -> (float, string) result

(** {1 Schema-stamped JSONL}: a ["schema"] stamp on the first line and
    a string ["kind"] on every line. *)

val jsonl_lines : string -> string list
(** The non-blank lines. *)

val jsonl_schema : string -> (string, string) result

val validate_jsonl :
  schema:string -> ?kinds:string list -> string -> (int, string) result
(** Checks the stamp and that every line parses with a ["kind"] (one of
    [kinds], if given); returns the line count. *)
