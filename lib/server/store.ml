(** On-disk warm-cache snapshots for the analysis daemon.

    A snapshot persists the two caches that make a daemon restart cheap:
    the dependence memo store ({!Dependence.Memo.snapshot} — the typed
    intern keys plus memoized pair answers) and the content-hashed unit
    cache (digest → stored response body).  Both are pure data, so the
    body is a [Marshal] stream framed by a human-readable header line:

    {v parinline-snapshot FORMAT SCHEMA OCAML_VERSION MD5HEX LENGTH v}

    Every field of the header gates the restore:

    - [FORMAT] is this module's framing version ({!format_version});
    - [SCHEMA] is the daemon's protocol schema version — the same number
      that versions response bodies, so a cache written by an
      incompatible daemon can never replay stale verdict shapes;
    - [OCAML_VERSION] pins the [Marshal] encoding (the stream is not
      stable across compiler versions);
    - [MD5HEX]/[LENGTH] are the integrity hash and byte length of the
      marshaled body — a truncated or bit-flipped file is rejected
      before [Marshal] ever sees it.

    Any mismatch degrades to a structured {!Core.Diag} warning and a
    clean cold start: restoring a warm cache is an optimization, never a
    correctness dependency.  Writes are atomic (temp file in the same
    directory, fsync, rename), the same crash contract as the bench
    driver's JSON artifacts. *)

let format_version = 1
let magic = "parinline-snapshot"
let snapshot_file = "warm.snapshot"

type payload = {
  pay_memo : Dependence.Memo.snapshot;
      (** the merged dependence memo store (hub + saving domain) *)
  pay_units : (string * string) list;
      (** unit cache: content-hash hex → stored response body, in
          cold→hot LRU recency order — restore replays it with in-order
          inserts, so the hot tail survives into a smaller cap *)
}

type load_result =
  | Restored of payload
  | Absent  (** no snapshot on disk: silent cold start *)
  | Rejected of Core.Diag.t
      (** corrupt or version-mismatched snapshot: warning + cold start *)

let path_in dir = Filename.concat dir snapshot_file

let reject fmt =
  Printf.ksprintf
    (fun m ->
      Rejected
        (Core.Diag.make ~severity:Core.Diag.Warning Core.Diag.Io
           ("snapshot rejected, cold-starting: " ^ m)))
    fmt

(* Atomic write: temp file in the target directory, fsync, rename. *)
let write_atomic path content =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> try close_out oc with _ -> ())
    (fun () ->
      output_string oc content;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

(** Write [payload] under [dir] (created if missing) for protocol
    [schema].  An I/O failure — or a tripped [server.snapshot] chaos
    fault — degrades to an [Error] diagnostic; the daemon reports it and
    keeps running (a lost snapshot only costs the next cold start). *)
let save ~dir ~schema (payload : payload) : (string, Core.Diag.t) result =
  match
    Frontend.Fault.point "server.snapshot";
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let body = Marshal.to_string payload [] in
    let header =
      Printf.sprintf "%s %d %d %s %s %d\n" magic format_version schema
        Sys.ocaml_version
        (Digest.to_hex (Digest.string body))
        (String.length body)
    in
    let path = path_in dir in
    write_atomic path (header ^ body);
    path
  with
  | path -> Ok path
  | exception e ->
      Error
        (Core.Diag.make ~severity:Core.Diag.Warning Core.Diag.Io
           (Printf.sprintf "snapshot write to %s failed: %s" dir
              (Printexc.to_string e)))

(** Load the snapshot under [dir], validating the full header before
    unmarshaling.  Never raises: every failure mode (including a tripped
    [server.snapshot] chaos fault) collapses into {!Rejected} with a
    structured warning, and a missing file is a silent {!Absent}. *)
let load ~dir ~schema : load_result =
  let path = path_in dir in
  if not (Sys.file_exists path) then Absent
  else
    match
      Frontend.Fault.point "server.snapshot";
      In_channel.with_open_bin path In_channel.input_all
    with
    | exception e -> reject "cannot read %s: %s" path (Printexc.to_string e)
    | contents -> (
        match String.index_opt contents '\n' with
        | None -> reject "%s: missing snapshot header" path
        | Some nl -> (
            let header = String.sub contents 0 nl in
            let body =
              String.sub contents (nl + 1) (String.length contents - nl - 1)
            in
            match String.split_on_char ' ' header with
            | [ m; fmt; sch; ocaml; digest; len ] -> (
                if not (String.equal m magic) then
                  reject "%s: bad magic %S" path m
                else
                  match
                    (int_of_string_opt fmt, int_of_string_opt sch,
                     int_of_string_opt len)
                  with
                  | Some fmt, Some sch, Some len ->
                      if fmt <> format_version then
                        reject "%s: format version %d, expected %d" path fmt
                          format_version
                      else if sch <> schema then
                        reject "%s: protocol schema %d, expected %d" path sch
                          schema
                      else if not (String.equal ocaml Sys.ocaml_version) then
                        reject "%s: written by OCaml %s, running %s" path
                          ocaml Sys.ocaml_version
                      else if len <> String.length body then
                        reject "%s: truncated body (%d of %d bytes)" path
                          (String.length body) len
                      else if
                        not
                          (String.equal digest
                             (Digest.to_hex (Digest.string body)))
                      then reject "%s: integrity hash mismatch" path
                      else begin
                        match (Marshal.from_string body 0 : payload) with
                        | payload -> Restored payload
                        | exception e ->
                            reject "%s: unmarshal failed: %s" path
                              (Printexc.to_string e)
                      end
                  | _ -> reject "%s: malformed header %S" path header)
            | _ -> reject "%s: malformed header %S" path header))
