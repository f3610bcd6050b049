(* Perf-regression comparison over BENCH_PERF.json entries and
   bench-metrics sidecars.

   The comparison is defensive about what it calls a regression: a
   benchmark that cannot be compared honestly (missing from the
   candidate, zero/absent baseline figures) is reported [Incomparable],
   never silently passed and never conflated with a measured slowdown.
   verify.sh runs this as a warn-by-default gate, so a finding must be
   explainable from its one-line detail alone. *)

type status = Pass | Regression | Incomparable

type finding = { f_id : string; f_status : status; f_detail : string }

type report = {
  base_label : string;
  cand_label : string;
  findings : finding list; (* base-file order *)
}

type thresholds = {
  max_rate_drop_pct : float; (* events/sec may fall by at most this *)
  max_alloc_rise_pct : float; (* minor words/event may rise by at most this *)
}

let default_thresholds = { max_rate_drop_pct = 15.; max_alloc_rise_pct = 25. }

let regressions r =
  List.length (List.filter (fun f -> f.f_status = Regression) r.findings)

let incomparable r =
  List.length (List.filter (fun f -> f.f_status = Incomparable) r.findings)

(* --- Measurements ---------------------------------------------------------- *)

(* One benchmark's figures; [mw] and [heap] are [nan] when the source
   format doesn't carry them (metrics sidecars), which disables the
   allocation check rather than faking a zero baseline. *)
type bench = {
  b_id : string;
  b_events : float;
  b_rate : float; (* events per second *)
  b_mw : float; (* minor words per event *)
}

type entry = { e_label : string; e_benches : bench list }

let ( let* ) = Result.bind

let bench_of_json j =
  let* id = Result.bind (Dsim.Json.member j "id") Dsim.Json.to_str in
  let* events = Result.bind (Dsim.Json.member j "events") Dsim.Json.to_float in
  let* rate =
    Result.bind (Dsim.Json.member j "events_per_sec") Dsim.Json.to_float
  in
  let* mw =
    Dsim.Json.member_float j "minor_words_per_event" ~default:Float.nan
  in
  Ok { b_id = id; b_events = events; b_rate = rate; b_mw = mw }

let entry_of_json j =
  let* label = Result.bind (Dsim.Json.member j "label") Dsim.Json.to_str in
  let* results = Result.bind (Dsim.Json.member j "results") Dsim.Json.to_list in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest ->
        let* b = bench_of_json r in
        go (b :: acc) rest
  in
  let* benches = go [] results in
  Ok { e_label = label; e_benches = benches }

let entries_of_string text =
  let* doc = Dsim.Json.parse text in
  let* schema = Result.bind (Dsim.Json.member doc "schema") Dsim.Json.to_str in
  if schema <> "mmb-bench-perf/1" then
    Error (Printf.sprintf "unexpected schema %S (want mmb-bench-perf/1)" schema)
  else
    let* entries = Result.bind (Dsim.Json.member doc "entries") Dsim.Json.to_list in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest ->
          let* entry = entry_of_json e in
          go (entry :: acc) rest
    in
    go [] entries

(* A bench-metrics sidecar ("engine" JSONL lines) viewed as one entry:
   each line's label is the benchmark id and its rate is events/wall.
   Lines without wall_s get a nan rate, surfaced as Incomparable. *)
let sidecar_of_string ~label text =
  let rec go acc = function
    | [] -> Ok { e_label = label; e_benches = List.rev acc }
    | line :: rest ->
        let* doc = Dsim.Json.parse line in
        let* kind = Dsim.Json.member_str doc "kind" ~default:"" in
        if kind <> "engine" then go acc rest
        else
          let* id = Result.bind (Dsim.Json.member doc "label") Dsim.Json.to_str in
          let* events =
            Result.bind (Dsim.Json.member doc "events") Dsim.Json.to_float
          in
          let* wall = Dsim.Json.member_float doc "wall_s" ~default:Float.nan in
          let rate = if wall > 0. then events /. wall else Float.nan in
          go
            ({ b_id = id; b_events = events; b_rate = rate; b_mw = Float.nan }
            :: acc)
            rest
  in
  go [] (Dsim.Json.jsonl_lines text)

(* --- Entry selection ------------------------------------------------------- *)

type selector = Index of int  (** negative counts from the end *) | Label of string

let selector_of_string s =
  match int_of_string_opt s with Some i -> Index i | None -> Label s

let select entries sel =
  let n = List.length entries in
  match sel with
  | Index i ->
      let i = if i < 0 then n + i else i in
      if i < 0 || i >= n then
        Error (Printf.sprintf "entry index out of range (have %d entries)" n)
      else Ok (List.nth entries i)
  | Label sub -> (
      let has_sub e =
        let sl = String.length sub and ll = String.length e.e_label in
        let rec at i =
          i + sl <= ll && (String.sub e.e_label i sl = sub || at (i + 1))
        in
        sl = 0 || at 0
      in
      (* Last match: labels grow append-only, "after:" style prefixes
         repeat, and the newest matching entry is the interesting one. *)
      match List.rev (List.filter has_sub entries) with
      | e :: _ -> Ok e
      | [] -> Error (Printf.sprintf "no entry label contains %S" sub))

(* --- Comparison ------------------------------------------------------------ *)

let pct_change ~base ~cand = (cand -. base) /. base *. 100.

let compare_bench ?(require_equal_events = false) thresholds base cand =
  let fail detail = { f_id = base.b_id; f_status = Regression; f_detail = detail } in
  let incomp detail =
    { f_id = base.b_id; f_status = Incomparable; f_detail = detail }
  in
  if base.b_rate <= 0. || Float.is_nan base.b_rate then
    incomp "baseline rate is zero or missing"
  else if Float.is_nan cand.b_rate then incomp "candidate rate is missing"
  else if require_equal_events && base.b_events <> cand.b_events then
    incomp
      (Printf.sprintf "event count changed: %.0f -> %.0f (runs not comparable)"
         base.b_events cand.b_events)
  else
    let rate_drop = -.pct_change ~base:base.b_rate ~cand:cand.b_rate in
    if rate_drop > thresholds.max_rate_drop_pct then
      fail
        (Printf.sprintf "rate dropped %.1f%% (%.0f -> %.0f ev/s, limit %.1f%%)"
           rate_drop base.b_rate cand.b_rate thresholds.max_rate_drop_pct)
    else if
      (* Allocation check only when both sides measured it and the
         baseline is meaningfully nonzero (avoids divide-by-~0 noise). *)
      (not (Float.is_nan base.b_mw))
      && (not (Float.is_nan cand.b_mw))
      && base.b_mw > 0.
      && pct_change ~base:base.b_mw ~cand:cand.b_mw
         > thresholds.max_alloc_rise_pct
    then
      fail
        (Printf.sprintf
           "allocation rose %.1f%% (%.1f -> %.1f minor words/event, limit \
            %.1f%%)"
           (pct_change ~base:base.b_mw ~cand:cand.b_mw)
           base.b_mw cand.b_mw thresholds.max_alloc_rise_pct)
    else
      {
        f_id = base.b_id;
        f_status = Pass;
        f_detail =
          (if rate_drop > 0. then
             Printf.sprintf "rate -%.1f%% (within %.1f%% limit)" rate_drop
               thresholds.max_rate_drop_pct
           else Printf.sprintf "rate +%.1f%%" (-.rate_drop));
      }

let compare_entries ?require_equal_events ?(thresholds = default_thresholds)
    base cand =
  let findings =
    List.map
      (fun b ->
        match
          List.find_opt (fun c -> c.b_id = b.b_id) cand.e_benches
        with
        | None ->
            {
              f_id = b.b_id;
              f_status = Incomparable;
              f_detail = "benchmark missing from candidate entry";
            }
        | Some c -> compare_bench ?require_equal_events thresholds b c)
      base.e_benches
  in
  { base_label = base.e_label; cand_label = cand.e_label; findings }

(* --- Rendering ------------------------------------------------------------- *)

let status_tag = function
  | Pass -> "PASS"
  | Regression -> "REGRESSION"
  | Incomparable -> "INCOMPARABLE"

let to_lines r =
  (Printf.sprintf "base: %s" r.base_label)
  :: (Printf.sprintf "cand: %s" r.cand_label)
  :: List.map
       (fun f ->
         Printf.sprintf "%-12s %-12s %s" (status_tag f.f_status) f.f_id
           f.f_detail)
       r.findings
  @ [
      (let reg = regressions r and inc = incomparable r in
       Printf.sprintf "%d benchmark(s), %d regression(s), %d incomparable"
         (List.length r.findings) reg inc);
    ]
