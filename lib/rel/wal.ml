(* Write-ahead logging: redo-only records over data mutations and
   soft-constraint catalog transitions, framed by begin/commit/abort.
   Memory sink for tests (durable-at-append), file sink for the CLI.

   The file format is line-oriented text: tab-separated fields, strings
   backslash-escaped, floats printed in hex ("%h") so the round-trip is
   exact.  Text rather than binary keeps crashed logs inspectable with
   standard tools, which matters more here than write amplification. *)

type sc_snapshot = {
  sc_name : string;
  sc_table : string;
  sc_absolute : bool;
  sc_confidence : float;
  sc_state : string;
  sc_anchor : int;
  sc_violations : int;
  sc_repr : string;
}

type sc_change =
  | Sc_installed of sc_snapshot
  | Sc_state of { name : string; state : string }
  | Sc_kind of { name : string; absolute : bool; confidence : float }
  | Sc_anchor of { name : string; anchor : int }
  | Sc_violations of { name : string; count : int }
  | Sc_statement of { name : string; repr : string }
  | Sc_dropped of { name : string }
  | Sc_exception of { name : string; table : string }

type record =
  | Begin of { txn : int }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Insert of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Delete of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Update of {
      txn : int;
      table : string;
      rid : Table.rid;
      before : Value.t array;
      after : Value.t array;
    }
  | Ddl of { txn : int; sql : string }
  | Sc of { txn : int; change : sc_change }
  | Idx_state of { txn : int; name : string; state : string }
      (* an index lifecycle transition (write_only/backfilling/readable/
         demoted): replay re-derives index consistency from these — a
         [readable] transition triggers a rebuild, an index still
         backfilling when the log ends is demoted *)

exception Wal_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Wal_error s)) fmt

(* ---- fault hooks -------------------------------------------------------- *)

(* [rel] sits below [obs], so the fault harness installs itself here. *)
let fault_hook : (string -> unit) ref = ref (fun _ -> ())
let set_fault_hook f = fault_hook := f
let point name = !fault_hook name

(* The physical-write indirection: every byte the file sink emits goes
   through this hook, so {!Obs.Fault} can tear a write short
   ([Torn_write]) or flip a byte ([Bit_flip]) at the exact point the
   bytes would hit the OS.  The default is a pass-through. *)
let write_hook : (point:string -> write:(string -> unit) -> string -> unit) ref
    =
  ref (fun ~point:_ ~write s -> write s)

let set_write_hook f = write_hook := f

let fault_points =
  [ "wal.append"; "wal.io"; "wal.pre_commit"; "wal.post_commit";
    "wal.checkpoint" ]

(* ---- text codec --------------------------------------------------------- *)

(* Strings are backslash-escaped so a field never contains a literal tab
   or newline; fields join with tabs, records with newlines. *)
let escape s =
  if
    not
      (String.exists
         (fun c -> c = '\\' || c = '\t' || c = '\n' || c = '\r')
         s)
  then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let unescape s =
  if not (String.contains s '\\') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '\\' && !i + 1 < n then begin
         (match s.[!i + 1] with
         | '\\' -> Buffer.add_char buf '\\'
         | 't' -> Buffer.add_char buf '\t'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | c -> error "bad escape '\\%c'" c);
         i := !i + 2
       end
       else begin
         Buffer.add_char buf s.[!i];
         incr i
       end)
    done;
    Buffer.contents buf
  end

(* Values carry a one-character type tag; floats use "%h" for an exact
   round-trip, dates their integer epoch-day representation. *)
let value_to_field = function
  | Value.Null -> "N"
  | Value.Int i -> "I" ^ string_of_int i
  | Value.Float f -> "F" ^ Printf.sprintf "%h" f
  | Value.String s -> "S" ^ escape s
  | Value.Bool b -> if b then "B1" else "B0"
  | Value.Date d -> "D" ^ string_of_int d

let value_of_field s =
  if s = "" then error "empty value field";
  let body () = String.sub s 1 (String.length s - 1) in
  match s.[0] with
  | 'N' -> Value.Null
  | 'I' -> (
      match int_of_string_opt (body ()) with
      | Some i -> Value.Int i
      | None -> error "bad int field %S" s)
  | 'F' -> (
      match float_of_string_opt (body ()) with
      | Some f -> Value.Float f
      | None -> error "bad float field %S" s)
  | 'S' -> Value.String (unescape (body ()))
  | 'B' -> (
      match body () with
      | "1" -> Value.Bool true
      | "0" -> Value.Bool false
      | _ -> error "bad bool field %S" s)
  | 'D' -> (
      match int_of_string_opt (body ()) with
      | Some d -> Value.Date d
      | None -> error "bad date field %S" s)
  | _ -> error "bad value field %S" s

let row_fields row =
  string_of_int (Array.length row)
  :: List.map value_to_field (Array.to_list row)

let int_field s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> error "expected integer, got %S" s

let float_field s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> error "expected float, got %S" s

let bool_field s =
  match s with
  | "1" -> true
  | "0" -> false
  | _ -> error "expected 0/1, got %S" s

(* consume a count-prefixed row from a field list *)
let take_row fields =
  match fields with
  | [] -> error "truncated row"
  | n :: rest ->
      let n = int_field n in
      let row = Array.make n Value.Null in
      let rest = ref rest in
      for i = 0 to n - 1 do
        match !rest with
        | [] -> error "truncated row (want %d values)" n
        | f :: tl ->
            row.(i) <- value_of_field f;
            rest := tl
      done;
      (row, !rest)

(* Older logs tagged data records of partitioned tables with one
   trailing segment number.  Replay never needed it, so it is read and
   discarded; anything longer is corrupt. *)
let end_of_data_record = function
  | [] -> ()
  | [ tag ] -> ignore (int_field tag : int)
  | _ -> error "trailing fields on data record"

let sc_change_fields = function
  | Sc_installed s ->
      [
        "install"; escape s.sc_name; escape s.sc_table;
        (if s.sc_absolute then "1" else "0");
        Printf.sprintf "%h" s.sc_confidence; escape s.sc_state;
        string_of_int s.sc_anchor; string_of_int s.sc_violations;
        escape s.sc_repr;
      ]
  | Sc_state { name; state } -> [ "state"; escape name; escape state ]
  | Sc_kind { name; absolute; confidence } ->
      [
        "kind"; escape name;
        (if absolute then "1" else "0");
        Printf.sprintf "%h" confidence;
      ]
  | Sc_anchor { name; anchor } ->
      [ "anchor"; escape name; string_of_int anchor ]
  | Sc_violations { name; count } ->
      [ "viol"; escape name; string_of_int count ]
  | Sc_statement { name; repr } -> [ "stmt"; escape name; escape repr ]
  | Sc_dropped { name } -> [ "drop"; escape name ]
  | Sc_exception { name; table } -> [ "exc"; escape name; escape table ]

let sc_change_of_fields = function
  | [ "install"; name; table; abs; conf; state; anchor; viol; repr ] ->
      Sc_installed
        {
          sc_name = unescape name;
          sc_table = unescape table;
          sc_absolute = bool_field abs;
          sc_confidence = float_field conf;
          sc_state = unescape state;
          sc_anchor = int_field anchor;
          sc_violations = int_field viol;
          sc_repr = unescape repr;
        }
  | [ "state"; name; state ] ->
      Sc_state { name = unescape name; state = unescape state }
  | [ "kind"; name; abs; conf ] ->
      Sc_kind
        {
          name = unescape name;
          absolute = bool_field abs;
          confidence = float_field conf;
        }
  | [ "anchor"; name; anchor ] ->
      Sc_anchor { name = unescape name; anchor = int_field anchor }
  | [ "viol"; name; count ] ->
      Sc_violations { name = unescape name; count = int_field count }
  | [ "stmt"; name; repr ] ->
      Sc_statement { name = unescape name; repr = unescape repr }
  | [ "drop"; name ] -> Sc_dropped { name = unescape name }
  | [ "exc"; name; table ] ->
      Sc_exception { name = unescape name; table = unescape table }
  | fields -> error "bad sc record: %s" (String.concat " " fields)

let record_to_line r =
  let fields =
    match r with
    | Begin { txn } -> [ "B"; string_of_int txn ]
    | Commit { txn } -> [ "C"; string_of_int txn ]
    | Abort { txn } -> [ "A"; string_of_int txn ]
    | Insert { txn; table; rid; row } ->
        [ "I"; string_of_int txn; escape table; string_of_int rid ]
        @ row_fields row
    | Delete { txn; table; rid; row } ->
        [ "D"; string_of_int txn; escape table; string_of_int rid ]
        @ row_fields row
    | Update { txn; table; rid; before; after } ->
        [ "U"; string_of_int txn; escape table; string_of_int rid ]
        @ row_fields before @ row_fields after
    | Ddl { txn; sql } -> [ "Q"; string_of_int txn; escape sql ]
    | Sc { txn; change } ->
        "S" :: string_of_int txn :: sc_change_fields change
    | Idx_state { txn; name; state } ->
        [ "X"; string_of_int txn; escape name; escape state ]
  in
  String.concat "\t" fields

let record_of_line line =
  match String.split_on_char '\t' line with
  | [ "B"; txn ] -> Begin { txn = int_field txn }
  | [ "C"; txn ] -> Commit { txn = int_field txn }
  | [ "A"; txn ] -> Abort { txn = int_field txn }
  | "I" :: txn :: table :: rid :: rest ->
      let row, extra = take_row rest in
      end_of_data_record extra;
      Insert
        {
          txn = int_field txn;
          table = unescape table;
          rid = int_field rid;
          row;
        }
  | "D" :: txn :: table :: rid :: rest ->
      let row, extra = take_row rest in
      end_of_data_record extra;
      Delete
        {
          txn = int_field txn;
          table = unescape table;
          rid = int_field rid;
          row;
        }
  | "U" :: txn :: table :: rid :: rest ->
      let before, rest = take_row rest in
      let after, extra = take_row rest in
      end_of_data_record extra;
      Update
        {
          txn = int_field txn;
          table = unescape table;
          rid = int_field rid;
          before;
          after;
        }
  | [ "Q"; txn; sql ] -> Ddl { txn = int_field txn; sql = unescape sql }
  | "S" :: txn :: rest ->
      Sc { txn = int_field txn; change = sc_change_of_fields rest }
  | [ "X"; txn; name; state ] ->
      Idx_state
        { txn = int_field txn; name = unescape name; state = unescape state }
  | _ -> error "corrupt log line: %S" line

(* ---- v2 line codec: LSN + CRC32 ----------------------------------------- *)

(* Format v2 wraps the v1 payload in an integrity header:

     L<lsn> \t <crc32-hex8> \t <v1 payload>

   The LSN increases by one per line within a file (checkpoints rewrite
   the whole file and restart at 1), and the checksum covers
   "<lsn>\t<payload>", so a torn, bit-flipped, or spliced line is
   detected rather than misparsed.  The head field "L<digits>" cannot
   collide with a v1 head tag (single letters B/C/A/I/D/U/Q/S), so v1
   logs remain readable line-by-line. *)

let line_of_record ~lsn r =
  let payload = record_to_line r in
  let lsn_s = string_of_int lsn in
  let crc = Crc32.string (lsn_s ^ "\t" ^ payload) in
  "L" ^ lsn_s ^ "\t" ^ Crc32.to_hex crc ^ "\t" ^ payload

let parse_line line =
  let v1 () =
    match record_of_line line with
    | r -> Ok (None, r)
    | exception Wal_error m -> Error m
  in
  let n = String.length line in
  if n = 0 then Error "empty line"
  else if n >= 2 && line.[0] = 'L' && line.[1] >= '0' && line.[1] <= '9' then begin
    match String.index_opt line '\t' with
    | None -> Error "v2 line truncated before checksum"
    | Some t1 -> (
        match String.index_from_opt line (t1 + 1) '\t' with
        | None -> Error "v2 line truncated before payload"
        | Some t2 -> (
            let lsn_s = String.sub line 1 (t1 - 1) in
            let crc_s = String.sub line (t1 + 1) (t2 - t1 - 1) in
            let payload = String.sub line (t2 + 1) (n - t2 - 1) in
            match (int_of_string_opt lsn_s, Crc32.of_hex crc_s) with
            | None, _ -> Error (Printf.sprintf "bad LSN field %S" lsn_s)
            | _, None -> Error (Printf.sprintf "bad checksum field %S" crc_s)
            | Some lsn, Some stored ->
                let computed = Crc32.string (lsn_s ^ "\t" ^ payload) in
                if computed <> stored then
                  Error
                    (Printf.sprintf
                       "checksum mismatch (stored %s, computed %s)"
                       (Crc32.to_hex stored) (Crc32.to_hex computed))
                else begin
                  match record_of_line payload with
                  | r -> Ok (Some lsn, r)
                  | exception Wal_error m -> Error m
                end))
  end
  else v1 ()

type scanned = {
  lineno : int;  (* 1-based, blank lines counted *)
  offset : int;  (* byte offset of the line start *)
  bytes : int;  (* line length including the newline, if present *)
  lsn : int option;  (* None for v1 lines and unparsable ones *)
  parsed : (record, string) result;
}

let scan_string contents =
  let n = String.length contents in
  let rec loop acc lineno off =
    if off >= n then List.rev acc
    else begin
      let nl =
        match String.index_from_opt contents off '\n' with
        | Some i -> i
        | None -> n
      in
      let line = String.sub contents off (nl - off) in
      let bytes = min n (nl + 1) - off in
      let acc =
        if line = "" then acc (* blank separators tolerated, as in load *)
        else begin
          let lsn, parsed =
            match parse_line line with
            | Ok (lsn, r) -> (lsn, Ok r)
            | Error m -> (None, Error m)
          in
          { lineno; offset = off; bytes; lsn; parsed } :: acc
        end
      in
      loop acc (lineno + 1) (nl + 1)
    end
  in
  loop [] 1 0

let read_file_bytes fpath =
  if not (Sys.file_exists fpath) then ""
  else In_channel.with_open_bin fpath In_channel.input_all

let scan_file fpath =
  let contents = read_file_bytes fpath in
  (contents, scan_string contents)

let txn_of = function
  | Begin { txn }
  | Commit { txn }
  | Abort { txn }
  | Insert { txn; _ }
  | Delete { txn; _ }
  | Update { txn; _ }
  | Ddl { txn; _ }
  | Sc { txn; _ }
  | Idx_state { txn; _ } ->
      txn

let committed_txns records =
  let committed = Hashtbl.create 16 in
  List.iter
    (function
      | Commit { txn } -> Hashtbl.replace committed txn ()
      | _ -> ())
    records;
  fun txn -> Hashtbl.mem committed txn

(* ---- sinks -------------------------------------------------------------- *)

type sink =
  | Memory of record list ref (* newest first *)
  | File of { fpath : string; mutable oc : out_channel option }

type t = {
  sink : sink;
  mutable next_txn : int;
  mutable next_lsn : int;
  mutable closed : bool;
}

(* Strict load: any unparsable or checksum-failing line raises.  The
   salvage-aware path ({!scan_file} + {!Core.Recovery}) classifies
   instead of raising. *)
let load_file fpath =
  let _, scanned = scan_file fpath in
  List.map
    (fun s ->
      match s.parsed with
      | Ok r -> r
      | Error m -> error "corrupt log line %d: %s" s.lineno m)
    scanned

let max_txn records =
  List.fold_left (fun acc r -> max acc (txn_of r)) 0 records

let create_memory () =
  { sink = Memory (ref []); next_txn = 1; next_lsn = 1; closed = false }

let open_file fpath =
  let _, scanned = scan_file fpath in
  let existing, max_lsn =
    List.fold_left
      (fun (acc, lsn) s ->
        match s.parsed with
        | Ok r ->
            (r :: acc, match s.lsn with Some l -> max lsn l | None -> lsn)
        | Error m -> error "corrupt log line %d: %s" s.lineno m)
      ([], 0) scanned
  in
  let existing = List.rev existing in
  let oc =
    try Some (open_out_gen [ Open_append; Open_creat ] 0o644 fpath)
    with Sys_error m -> error "cannot open log %s: %s" fpath m
  in
  {
    sink = File { fpath; oc };
    next_txn = max_txn existing + 1;
    next_lsn = max_lsn + 1;
    closed = false;
  }

let path t = match t.sink with Memory _ -> None | File f -> Some f.fpath

let check_open t = if t.closed then error "write-ahead log is closed"

let fresh_txn t =
  check_open t;
  let id = t.next_txn in
  t.next_txn <- id + 1;
  id

let file_oc fpath = function
  | Some oc -> oc
  | None -> error "log %s is closed" fpath

let append t r =
  check_open t;
  point "wal.append";
  match t.sink with
  | Memory records -> records := r :: !records
  | File f -> (
      point "wal.io";
      let oc = file_oc f.fpath f.oc in
      let lsn = t.next_lsn in
      t.next_lsn <- lsn + 1;
      let line = line_of_record ~lsn r ^ "\n" in
      try !write_hook ~point:"wal.io" ~write:(fun s -> output_string oc s) line
      with Sys_error m -> error "write to %s failed: %s" f.fpath m)

let flush t =
  match t.sink with
  | Memory _ -> ()
  | File f -> (
      match f.oc with
      | None -> ()
      | Some oc -> ( try Stdlib.flush oc with Sys_error _ -> ()))

let commit t txn =
  check_open t;
  point "wal.pre_commit";
  append t (Commit { txn });
  flush t;
  point "wal.post_commit"

let abort t txn =
  check_open t;
  append t (Abort { txn });
  flush t

let records t =
  match t.sink with
  | Memory records -> List.rev !records
  | File f ->
      flush t;
      load_file f.fpath

(* Checkpoint primitive: atomically replace the log's contents.  The file
   sink writes a sibling file and renames it over the log, so a crash
   mid-checkpoint leaves the original intact. *)
let truncate_with t new_records =
  check_open t;
  (match t.sink with
  | Memory records ->
      point "wal.checkpoint";
      records := List.rev new_records
  | File f ->
      let tmp = f.fpath ^ ".ckpt" in
      (* the rewritten file restarts the LSN sequence at 1: monotonicity
         is a per-file invariant, and the rename makes this a new file *)
      let lsn = ref 0 in
      Out_channel.with_open_text tmp (fun oc ->
          List.iter
            (fun r ->
              incr lsn;
              !write_hook ~point:"wal.checkpoint"
                ~write:(fun s -> output_string oc s)
                (line_of_record ~lsn:!lsn r ^ "\n"))
            new_records);
      point "wal.checkpoint";
      (match f.oc with
      | Some oc ->
          close_out_noerr oc;
          f.oc <- None
      | None -> ());
      Sys.rename tmp f.fpath;
      f.oc <- Some (open_out_gen [ Open_append; Open_creat ] 0o644 f.fpath);
      t.next_lsn <- !lsn + 1);
  t.next_txn <- max t.next_txn (max_txn new_records + 1)

let close t =
  if not t.closed then begin
    flush t;
    (match t.sink with
    | Memory _ -> ()
    | File f -> (
        match f.oc with
        | Some oc ->
            close_out_noerr oc;
            f.oc <- None
        | None -> ()));
    t.closed <- true
  end

(* ---- display ------------------------------------------------------------ *)

let pp_row ppf row =
  Fmt.pf ppf "(%a)"
    Fmt.(array ~sep:(any ", ") (fun ppf v -> Value.pp ppf v))
    row

let pp_record ppf = function
  | Begin { txn } -> Fmt.pf ppf "BEGIN %d" txn
  | Commit { txn } -> Fmt.pf ppf "COMMIT %d" txn
  | Abort { txn } -> Fmt.pf ppf "ABORT %d" txn
  | Insert { txn; table; rid; row } ->
      Fmt.pf ppf "[%d] INSERT %s #%d %a" txn table rid pp_row row
  | Delete { txn; table; rid; row } ->
      Fmt.pf ppf "[%d] DELETE %s #%d %a" txn table rid pp_row row
  | Update { txn; table; rid; before; after } ->
      Fmt.pf ppf "[%d] UPDATE %s #%d %a -> %a" txn table rid pp_row before
        pp_row after
  | Ddl { txn; sql } -> Fmt.pf ppf "[%d] DDL %s" txn sql
  | Sc { txn; change } ->
      Fmt.pf ppf "[%d] SC %s" txn
        (String.concat " " (sc_change_fields change))
  | Idx_state { txn; name; state } ->
      Fmt.pf ppf "[%d] IDX %s -> %s" txn name state
