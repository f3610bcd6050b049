(* Content-addressed result cache.

   One JSONL file per job digest under the cache directory (flat layout:
   [dir/<md5-hex>.jsonl], one JSON object per file).  The digest already
   encodes the canonical spec and the code-version salt, so lookups never
   have to compare specs — a file either exists for the digest or it
   doesn't.  Entries carry everything needed to replay a job without
   executing it: the result value, the captured report text, and the
   engine-counter delta. *)

type t = { dir : string; mutable hits : int; mutable misses : int }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* A [*.jsonl.tmp.<disc>] file is only ever live between [store]'s
   open and rename below; any such file found when the cache is opened
   was orphaned by a killed run and would otherwise accumulate forever.
   Safe only because one process opens a given cache dir at a time
   (the campaign runner's model: workers share the [t] of a single
   coordinating process). *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let sweep_stale_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if contains ~sub:".jsonl.tmp." name then
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        names

let create ~dir =
  mkdir_p dir;
  sweep_stale_tmp dir;
  { dir; hits = 0; misses = 0 }

let dir t = t.dir

let path t ~digest = Filename.concat t.dir (digest ^ ".jsonl")

let find t ~digest =
  match Dsim.Json.read_file (path t ~digest) with
  | Error _ ->
      t.misses <- t.misses + 1;
      None
  | Ok text -> (
      match Dsim.Json.parse (String.trim text) with
      | Ok json ->
          t.hits <- t.hits + 1;
          Some json
      | Error _ ->
          (* A torn write (interrupted run): treat as a miss; the fresh
             result will overwrite it. *)
          t.misses <- t.misses + 1;
          None)

(* Writes go through a per-entry temp file and a rename so a concurrent
   reader never sees a half-written entry.  [disc] keeps temp names of
   workers racing on duplicate jobs distinct. *)
let store t ~digest ?(disc = "0") json =
  let final = path t ~digest in
  let tmp = final ^ ".tmp." ^ disc in
  Dsim.Json.write_jsonl ~path:tmp (fun line -> line json);
  Sys.rename tmp final

let hits t = t.hits
let misses t = t.misses
