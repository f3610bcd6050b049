(* Resumable campaign checkpoints.

   A manifest is an append-only JSONL file: a header line identifying the
   campaign (salt, job count) followed by one line per completed job
   carrying its index, digest, and full replayable entry.  An interrupted
   sweep leaves a prefix of these lines behind (appends are flushed per
   job); on restart the campaign loads them, keeps every entry whose
   digest still matches the job at that index, and executes only the
   rest.  A torn final line — the kill arrived mid-write — is skipped. *)

type loaded = {
  salt : string;
  total : int;
  entries : (int * string * Dsim.Json.t) list;  (* idx, digest, entry *)
}

type t = { oc : out_channel; lock : Mutex.t }

let header ~salt ~total =
  Dsim.Json.Obj
    [
      ("kind", Dsim.Json.String "campaign");
      ("salt", Dsim.Json.String salt);
      ("total", Dsim.Json.Number (float_of_int total));
    ]

let start ~path ~salt ~total =
  Cache.mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc (Dsim.Json.to_string (header ~salt ~total));
  output_char oc '\n';
  flush oc;
  { oc; lock = Mutex.create () }

let append_to ~path =
  (* Heal a torn tail first: if the kill arrived mid-line, the file does
     not end in a newline, and appending directly would glue the next
     record onto the fragment — losing both. *)
  let torn_tail =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let len = in_channel_length ic in
            len > 0
            &&
            (seek_in ic (len - 1);
             input_char ic <> '\n'))
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if torn_tail then begin
    output_char oc '\n';
    flush oc
  end;
  { oc; lock = Mutex.create () }

let record t ~idx ~digest entry =
  let line =
    Dsim.Json.to_string
      (Dsim.Json.Obj
         [
           ("idx", Dsim.Json.Number (float_of_int idx));
           ("digest", Dsim.Json.String digest);
           ("entry", entry);
         ])
  in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t = close_out t.oc

let load ~path =
  match Dsim.Json.read_file path with
  | Error _ -> None
  | Ok text -> (
      match String.split_on_char '\n' text with
      | [] -> None
      | hd :: rest -> (
          match Dsim.Json.parse hd with
          | Error _ -> None
          | Ok hd_json -> (
              let ( let* ) = Option.bind in
              let* () =
                match Dsim.Json.member_opt hd_json "kind" with
                | Some (Dsim.Json.String "campaign") -> Some ()
                | _ -> None
              in
              let* salt =
                match Dsim.Json.member_opt hd_json "salt" with
                | Some (Dsim.Json.String s) -> Some s
                | _ -> None
              in
              match Dsim.Json.member_int hd_json "total" ~default:0 with
              | Error _ -> None
              | Ok total ->
                  let entries =
                    List.filter_map
                      (fun line ->
                        if String.trim line = "" then None
                        else
                          match Dsim.Json.parse line with
                          | Error _ -> None (* torn tail line *)
                          | Ok json -> (
                              match
                                ( Dsim.Json.member_opt json "idx",
                                  Dsim.Json.member_opt json "digest",
                                  Dsim.Json.member_opt json "entry" )
                              with
                              | ( Some (Dsim.Json.Number i),
                                  Some (Dsim.Json.String d),
                                  Some entry ) ->
                                  Some (int_of_float i, d, entry)
                              | _ -> None))
                      rest
                  in
                  Some { salt; total; entries })))
