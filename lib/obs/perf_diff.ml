(* Regression verdicts between two ledger runs (see the .mli).

   The comparison is defensive about what it calls a regression: a
   figure that cannot be compared honestly is [Incomparable], never
   silently passed and never conflated with a measured slowdown. *)

type status = Pass | Regression | Incomparable

type finding = { f_id : string; f_status : status; f_detail : string }

let ( let* ) = Result.bind

let rec all f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = all f rest in
      Ok (y :: ys)

let field j key conv = Result.bind (Dsim.Json.member j key) conv

(* --- BENCHMARK.json -------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  lower_better : bool;
  bound : float; (* nan for per-layer metrics, which have none *)
}

let metric ~bounded j =
  let* name = field j "name" Dsim.Json.to_str in
  let* unit_ = field j "unit" Dsim.Json.to_str in
  let* better = field j "better" Dsim.Json.to_str in
  let* bound =
    if bounded then field j "bound" Dsim.Json.to_float else Ok Float.nan
  in
  match better with
  | "lower" | "higher" ->
      Ok { name; unit_; lower_better = String.equal better "lower"; bound }
  | b -> Error (Printf.sprintf "metric %S: better is %S" name b)

let spec_of_string text =
  let* doc = Dsim.Json.parse text in
  let section key ~bounded =
    Result.bind (field doc key Dsim.Json.to_list) (all (metric ~bounded))
  in
  let* end_to_end = section "end_to_end" ~bounded:true in
  let* per_layer = section "per_layer" ~bounded:false in
  Ok (end_to_end, per_layer)

(* --- run.py output --------------------------------------------------------- *)

type run = {
  host : Dsim.Json.t;
  attempted : float;
  failed : float;
  values : (string * float) list;
}

let run_of_string text =
  let docs =
    List.filter_map
      (fun line -> Result.to_option (Dsim.Json.parse line))
      (Dsim.Json.jsonl_lines text)
  in
  let last key =
    List.fold_left
      (fun acc d ->
        if Option.is_some (Dsim.Json.member_opt d key) then Some d else acc)
      None docs
  in
  match (last "host", last "metrics") with
  | None, _ -> Error "no host line"
  | _, None -> Error "no result line"
  | Some h, Some r ->
      let* host = Dsim.Json.member h "host" in
      let* attempted = field r "attempted" Dsim.Json.to_float in
      let* failed = field r "failed" Dsim.Json.to_float in
      let* values =
        match Dsim.Json.member_opt r "metrics" with
        | Some (Dsim.Json.Obj ms) ->
            all
              (fun (name, m) ->
                let* v = field m "value" Dsim.Json.to_float in
                Ok (name, v))
              ms
        | _ -> Error "metrics is not an object"
      in
      Ok { host; attempted; failed; values }

(* --- Verdicts -------------------------------------------------------------- *)

let finding f_id f_status fmt =
  Printf.ksprintf (fun f_detail -> { f_id; f_status; f_detail }) fmt

(* Host fields whose values differ, in name order. *)
let host_diff a b =
  let keys = function Dsim.Json.Obj kv -> List.map fst kv | _ -> [] in
  let show j k =
    match Dsim.Json.member_opt j k with
    | Some v -> Dsim.Json.to_string v
    | None -> "absent"
  in
  List.filter
    (fun k -> not (String.equal (show a k) (show b k)))
    (List.sort_uniq String.compare (keys a @ keys b))

(* Both values of a metric, or the finding that says why there are not:
   [None] when neither run measured it (the other mode's metric). *)
let both m base cand k =
  match
    (List.assoc_opt m.name base.values, List.assoc_opt m.name cand.values)
  with
  | None, None -> None
  | None, Some _ ->
      Some (finding m.name Incomparable "missing from the base run")
  | Some _, None ->
      Some (finding m.name Incomparable "missing from the candidate run")
  | Some b, Some c -> Some (k b c)

let judge_bound m b c =
  if not (Float.is_finite b && b > 0.) then
    finding m.name Incomparable "base value %g is not positive and finite" b
  else if not (Float.is_finite c) then
    finding m.name Incomparable "candidate value %g is not finite" c
  else
    let change = (c -. b) /. b in
    let worse = if m.lower_better then change else -.change in
    finding m.name
      (if worse > m.bound then Regression else Pass)
      "%.4g -> %.4g %s (%+.1f%%, bound %+.0f%%)" b c m.unit_
      (100. *. change)
      (if m.lower_better then 100. *. m.bound else -100. *. m.bound)

let judge_count m b c =
  if Float.equal b c then finding m.name Pass "equal (%.0f)" b
  else
    finding m.name Incomparable "%.0f -> %.0f: the runs did different work" b
      c

let judge_failures base cand =
  let id = "failed_share" in
  if base.attempted <= 0. || cand.attempted <= 0. then
    finding id Incomparable "no simulation attempted (%.0f, %.0f)"
      base.attempted cand.attempted
  else
    finding id
      (if cand.failed /. cand.attempted > base.failed /. base.attempted then
         Regression
       else Pass)
      "%.0f/%.0f -> %.0f/%.0f failed" base.failed base.attempted cand.failed
      cand.attempted

let judge ~spec ~base ~cand =
  let tag what = Result.map_error (fun e -> what ^ ": " ^ e) in
  let* end_to_end, per_layer = tag "BENCHMARK.json" (spec_of_string spec) in
  let* base = tag "base" (run_of_string base) in
  let* cand = tag "candidate" (run_of_string cand) in
  match host_diff base.host cand.host with
  | _ :: _ as keys ->
      Ok
        [
          finding "host" Incomparable "host records differ in %s"
            (String.concat ", " keys);
        ]
  | [] ->
      let counts =
        List.filter (fun m -> String.equal m.unit_ "count") per_layer
      in
      Ok
        (List.filter_map (fun m -> both m base cand (judge_bound m)) end_to_end
        @ [ judge_failures base cand ]
        @ List.filter_map (fun m -> both m base cand (judge_count m)) counts)

(* --- Rendering ------------------------------------------------------------- *)

let count status fs =
  List.length (List.filter (fun f -> f.f_status = status) fs)
let regressions = count Regression
let incomparable = count Incomparable

let status_tag = function
  | Pass -> "PASS"
  | Regression -> "REGRESSION"
  | Incomparable -> "INCOMPARABLE"

let to_lines fs =
  List.map
    (fun f ->
      Printf.sprintf "%-12s %-20s %s" (status_tag f.f_status) f.f_id f.f_detail)
    fs
  @ [
      Printf.sprintf "%d finding(s), %d regression(s), %d incomparable"
        (List.length fs) (regressions fs) (incomparable fs);
    ]
