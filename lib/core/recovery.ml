(* Crash-safe durability: the link between a live {!Softdb.t} and a
   write-ahead log, plus checkpointing and replay.

   The engine is in-memory, so durability is entirely log-shaped: every
   data mutation and every soft-constraint catalog transition is appended
   to the WAL inside a begin/commit/abort frame, and [recover] replays
   the committed frames into a fresh database.  Framing:

   - an explicit {!Txn} maps to one WAL transaction — paper §4.1's
     question ("what then if transaction A aborts in the end anyway?  Is
     the ASC then re-instated?") is answered across crashes too: an ASC
     overturned by a transaction whose commit record never made it to the
     log comes back on recovery, because the whole frame is skipped;
   - outside explicit transactions each statement autocommits: its frame
     commits at statement end (partial effects of a failed DML statement
     are real in memory, so the frame commits on failure as well);
   - DDL is logged as its printed SQL and re-executed at replay; the data
     and catalog side effects of executing it (index backfills,
     exception-table population, SOFT installs) are suppressed from the
     log while the statement runs, since the replayed statement
     regenerates them deterministically.

   Replay applies data records through the listener-free
   {!Database.replay_insert}/[replay_delete]/[replay_update] primitives —
   listener side effects (exception-table maintenance, SC overturns) are
   themselves in the log, so re-firing listeners would double-apply
   them.  Inserts are rid-faithful, which keeps later records (and
   exception-table row identities) aligned.

   Every handler no-ops once {!Obs.Fault.crash_pending} is set: after a
   simulated crash the process is presumed dead, and nothing it would
   have done after the crash instant may reach the log. *)

open Rel

exception Recovery_error of string

type frame = Closed | Open of { txn : int; explicit_ : bool }

(* @guarded-by db.rwlock — the WAL hooks fire inside write statements
   under the exclusive lock; startup replay runs before the server *)
type t = {
  sdb : Softdb.t;
  wal : Wal.t;
  mutable frame : frame;
  mutable suppress : bool; (* a DDL statement is executing *)
  mutable dead : bool;
}

let softdb link = link.sdb
let wal link = link.wal

let alive link = (not link.dead) && not (Obs.Fault.crash_pending ())

(* ---- record emission ----------------------------------------------------- *)

let ensure_frame link =
  match link.frame with
  | Open { txn; _ } -> txn
  | Closed ->
      let txn = Wal.fresh_txn link.wal in
      Wal.append link.wal (Wal.Begin { txn });
      link.frame <- Open { txn; explicit_ = false };
      txn

let commit_frame link =
  match link.frame with
  | Closed -> ()
  | Open { txn; _ } ->
      link.frame <- Closed;
      Wal.commit link.wal txn

let abort_frame link =
  match link.frame with
  | Closed -> ()
  | Open { txn; _ } ->
      link.frame <- Closed;
      Wal.abort link.wal txn

let snapshot_of (sc : Soft_constraint.t) =
  {
    Wal.sc_name = sc.Soft_constraint.name;
    sc_table = sc.Soft_constraint.table;
    sc_absolute = Soft_constraint.is_absolute sc;
    sc_confidence = Soft_constraint.confidence sc;
    sc_state = Soft_constraint.state_to_string sc.Soft_constraint.state;
    sc_anchor = sc.Soft_constraint.installed_at_mutations;
    sc_violations = sc.Soft_constraint.violation_count;
    sc_repr = Sc_codec.statement_repr sc.Soft_constraint.statement;
  }

let on_mutation link m =
  if alive link && not link.suppress then begin
    let txn = ensure_frame link in
    let record =
      match m with
      | Database.Inserted { table; rid; row } ->
          Wal.Insert { txn; table; rid; row = Tuple.copy row }
      | Database.Deleted { table; rid; row } ->
          Wal.Delete { txn; table; rid; row = Tuple.copy row }
      | Database.Updated { table; rid; before; after } ->
          Wal.Update
            {
              txn;
              table;
              rid;
              before = Tuple.copy before;
              after = Tuple.copy after;
            }
    in
    Wal.append link.wal record
  end

let on_sc_change link c =
  if alive link && not link.suppress then begin
    let txn = ensure_frame link in
    let name (sc : Soft_constraint.t) = sc.Soft_constraint.name in
    let change =
      match c with
      | Sc_catalog.Installed sc -> Wal.Sc_installed (snapshot_of sc)
      | Sc_catalog.Removed sc -> Wal.Sc_dropped { name = name sc }
      | Sc_catalog.State_changed sc ->
          Wal.Sc_state
            {
              name = name sc;
              state = Soft_constraint.state_to_string sc.Soft_constraint.state;
            }
      | Sc_catalog.Kind_changed sc ->
          Wal.Sc_kind
            {
              name = name sc;
              absolute = Soft_constraint.is_absolute sc;
              confidence = Soft_constraint.confidence sc;
            }
      | Sc_catalog.Anchor_changed sc ->
          Wal.Sc_anchor
            {
              name = name sc;
              anchor = sc.Soft_constraint.installed_at_mutations;
            }
      | Sc_catalog.Violations_changed sc ->
          Wal.Sc_violations
            { name = name sc; count = sc.Soft_constraint.violation_count }
      | Sc_catalog.Statement_changed sc ->
          Wal.Sc_statement
            {
              name = name sc;
              repr = Sc_codec.statement_repr sc.Soft_constraint.statement;
            }
      | Sc_catalog.Exception_registered { constraint_name; table } ->
          Wal.Sc_exception { name = constraint_name; table }
    in
    Wal.append link.wal (Wal.Sc { txn; change })
  end

(* Index lifecycle transitions are logged as [Idx_state] records.  They
   arrive outside statement framing (the backfill runs between
   statements), so each transition autocommits as its own mini-frame
   unless an explicit transaction is open: a promotion to [Readable]
   that reached the log survives a crash on its own.  Suppressed while a
   DDL statement executes — an eager CREATE INDEX transitions the fresh
   index internally, and the replayed statement regenerates that. *)
let on_index_state link idx =
  if alive link && not link.suppress then begin
    let txn = ensure_frame link in
    Wal.append link.wal
      (Wal.Idx_state
         {
           txn;
           name = Index.name idx;
           state = Index.state_to_string (Index.state idx);
         });
    match link.frame with
    | Open { explicit_ = false; _ } ->
        link.frame <- Closed;
        Wal.commit link.wal txn
    | Open { explicit_ = true; _ } | Closed -> ()
  end

let on_txn link ev =
  if alive link then
    match ev with
    | Txn.Began t when Txn.softdb t == link.sdb ->
        (* close any dangling autocommit frame, then open the explicit one *)
        commit_frame link;
        let txn = Wal.fresh_txn link.wal in
        Wal.append link.wal (Wal.Begin { txn });
        link.frame <- Open { txn; explicit_ = true }
    | Txn.Committed t when Txn.softdb t == link.sdb -> commit_frame link
    | Txn.Rolled_back t when Txn.softdb t == link.sdb -> abort_frame link
    | Txn.Began _ | Txn.Committed _ | Txn.Rolled_back _ -> ()

let is_ddl (stmt : Sqlfe.Ast.statement) =
  match stmt with
  | Sqlfe.Ast.Create_table _ | Sqlfe.Ast.Drop_table _ | Sqlfe.Ast.Drop_index _
  | Sqlfe.Ast.Create_index _ | Sqlfe.Ast.Alter_add_constraint _
  | Sqlfe.Ast.Alter_partition_by _ | Sqlfe.Ast.Drop_constraint _
  | Sqlfe.Ast.Create_exception_table _ ->
      true
  | Sqlfe.Ast.Query _ | Sqlfe.Ast.Explain _ | Sqlfe.Ast.Explain_analyze _
  | Sqlfe.Ast.Insert _ | Sqlfe.Ast.Delete _ | Sqlfe.Ast.Update _
  | Sqlfe.Ast.Runstats _ ->
      false

let autocommit link =
  match link.frame with
  | Open { explicit_ = false; _ } -> commit_frame link
  | Open { explicit_ = true; _ } | Closed -> ()

let on_statement link ev =
  if alive link then
    match ev with
    | Softdb.Stmt_started stmt -> if is_ddl stmt then link.suppress <- true
    | Softdb.Stmt_finished (stmt, ok) ->
        if is_ddl stmt then begin
          link.suppress <- false;
          if ok then begin
            let txn = ensure_frame link in
            Wal.append link.wal
              (Wal.Ddl { txn; sql = Sqlfe.Printer.statement_to_string stmt });
            autocommit link
          end
        end
        else
          (* a failed DML statement still commits its frame: the partial
             effects are real in memory and must survive recovery *)
          autocommit link

(* ---- wiring -------------------------------------------------------------- *)

let attach sdb wal =
  Obs.Fault.install ();
  List.iter Obs.Fault.declare Txn.fault_points;
  List.iter Obs.Fault.declare Maintenance.fault_points;
  let link = { sdb; wal; frame = Closed; suppress = false; dead = false } in
  Database.on_mutation (Softdb.db sdb) (on_mutation link);
  Database.on_index_state (Softdb.db sdb) (on_index_state link);
  Sc_catalog.on_change (Softdb.catalog sdb) (on_sc_change link);
  Txn.on_event (on_txn link);
  Softdb.on_statement sdb (on_statement link);
  link

let flush link =
  if alive link then begin
    autocommit link;
    Wal.flush link.wal
  end

let detach link =
  flush link;
  link.dead <- true

let kill link = link.dead <- true

(* ---- checkpoint ---------------------------------------------------------- *)

(* Rewrite the log as one committed frame reproducing the current state:
   schema DDL, raw rows (rid-faithful), and soft-constraint images.
   Auto-created key indexes are omitted — replaying the ALTER statements
   recreates them under the same names. *)
let checkpoint link =
  (match link.frame with
  | Open { explicit_ = true; _ } ->
      raise (Recovery_error "checkpoint during an active transaction")
  | Open { explicit_ = false; _ } | Closed -> commit_frame link);
  let db = Softdb.db link.sdb in
  let catalog = Softdb.catalog link.sdb in
  let txn = 1 in
  let buf = ref [] in
  let emit r = buf := r :: !buf in
  let ddl stmt =
    emit (Wal.Ddl { txn; sql = Sqlfe.Printer.statement_to_string stmt })
  in
  emit (Wal.Begin { txn });
  let tables = List.sort String.compare (Database.table_names db) in
  List.iter
    (fun name ->
      let schema = Table.schema (Database.table_exn db name) in
      let cols =
        List.map
          (fun (c : Schema.column) ->
            {
              Sqlfe.Ast.col_name = c.Schema.name;
              col_type = c.Schema.dtype;
              col_not_null = not c.Schema.nullable;
            })
          (Schema.columns schema)
      in
      ddl (Sqlfe.Ast.Create_table { name; cols; constraints = [] }))
    tables;
  List.iter
    (fun (ic : Icdef.t) ->
      ddl
        (Sqlfe.Ast.Alter_add_constraint
           {
             table = ic.Icdef.table;
             con =
               {
                 Sqlfe.Ast.con_name = Some ic.Icdef.name;
                 con_body = ic.Icdef.body;
                 con_mode =
                   (if Icdef.is_enforced ic then Sqlfe.Ast.Mode_enforced
                    else Sqlfe.Ast.Mode_informational);
               };
           }))
    (Database.constraints db);
  (* partitioning before the data inserts, so replay routes rows as it
     applies them *)
  List.iter
    (fun tname ->
      match Database.partitioning db tname with
      | Some part ->
          ddl
            (Sqlfe.Ast.Alter_partition_by
               { table = tname; spec = Partition.spec part })
      | None -> ())
    (Database.partitioned_tables db);
  let auto_key_indexes =
    List.filter_map
      (fun (ic : Icdef.t) ->
        match ic.Icdef.body with
        | Icdef.Primary_key cols | Icdef.Unique cols ->
            Some
              (Printf.sprintf "%s_key_%s" ic.Icdef.table
                 (String.concat "_" cols))
        | _ -> None)
      (Database.constraints db)
  in
  List.iter
    (fun tname ->
      List.iter
        (fun idx ->
          let iname = Index.name idx in
          if not (List.mem iname auto_key_indexes) then begin
            (* a readable index replays as an eager create (rebuilt from
               the checkpointed rows, consistent by construction); any
               other lifecycle state replays as an ONLINE shell plus an
               Idx_state record pinning the state *)
            let state = Index.state idx in
            ddl
              (Sqlfe.Ast.Create_index
                 {
                   index_name = iname;
                   table = tname;
                   columns = Index.columns idx;
                   unique = Index.is_unique idx;
                   online = state <> Index.Readable;
                 });
            match state with
            | Index.Readable | Index.Write_only -> ()
            | Index.Backfilling | Index.Demoted ->
                emit
                  (Wal.Idx_state
                     { txn; name = iname; state = Index.state_to_string state })
          end)
        (Database.indexes_on db tname))
    tables;
  List.iter
    (fun tname ->
      let tbl = Database.table_exn db tname in
      Table.iteri tbl ~f:(fun rid row ->
          emit (Wal.Insert { txn; table = tname; rid; row = Tuple.copy row })))
    tables;
  List.iter
    (fun sc -> emit (Wal.Sc { txn; change = Wal.Sc_installed (snapshot_of sc) }))
    (Sc_catalog.all catalog);
  List.iter
    (fun (cname, table) ->
      emit (Wal.Sc { txn; change = Wal.Sc_exception { name = cname; table } }))
    (Sc_catalog.exception_tables catalog);
  emit (Wal.Commit { txn });
  Wal.truncate_with link.wal (List.rev !buf)

(* ---- replay -------------------------------------------------------------- *)

let apply_sc_change sdb change =
  let catalog = Softdb.catalog sdb in
  let with_sc name f =
    match Sc_catalog.find catalog name with Some sc -> f sc | None -> ()
  in
  match change with
  | Wal.Sc_installed snap ->
      (* idempotent: a SOFT declaration replayed as DDL already installed
         the constraint under this name *)
      if Sc_catalog.find catalog snap.Wal.sc_name = None then begin
        let statement = Sc_codec.statement_of_repr snap.Wal.sc_repr in
        let kind =
          if snap.Wal.sc_absolute then Soft_constraint.Absolute
          else Soft_constraint.Statistical snap.Wal.sc_confidence
        in
        let state =
          match Soft_constraint.state_of_string snap.Wal.sc_state with
          | Some s -> s
          | None -> Soft_constraint.Active
        in
        let sc =
          Soft_constraint.make ~name:snap.Wal.sc_name ~table:snap.Wal.sc_table
            ~kind ~state ~installed_at_mutations:snap.Wal.sc_anchor statement
        in
        sc.Soft_constraint.violation_count <- snap.Wal.sc_violations;
        Softdb.install_sc sdb sc
      end
  | Wal.Sc_state { name; state } ->
      with_sc name (fun sc ->
          match Soft_constraint.state_of_string state with
          | Some s -> Sc_catalog.set_state catalog sc s
          | None -> ())
  | Wal.Sc_kind { name; absolute; confidence } ->
      with_sc name (fun sc ->
          Sc_catalog.set_kind catalog sc
            (if absolute then Soft_constraint.Absolute
             else Soft_constraint.Statistical confidence))
  | Wal.Sc_anchor { name; anchor } ->
      with_sc name (fun sc -> Sc_catalog.set_anchor catalog sc anchor)
  | Wal.Sc_violations { name; count } ->
      with_sc name (fun sc -> Sc_catalog.set_violations catalog sc count)
  | Wal.Sc_statement { name; repr } ->
      with_sc name (fun sc ->
          Sc_catalog.set_statement catalog sc (Sc_codec.statement_of_repr repr))
  | Wal.Sc_dropped { name } -> Sc_catalog.drop catalog name
  | Wal.Sc_exception { name; table } ->
      with_sc name (fun sc ->
          ignore (Exception_table.reattach (Softdb.db sdb) ~sc ~table_name:table);
          Sc_catalog.register_exception_table catalog ~constraint_name:name
            ~table)

let apply_record sdb r =
  let db = Softdb.db sdb in
  match r with
  | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ()
  | Wal.Insert { table; rid; row; _ } ->
      Database.replay_insert db ~table rid (Tuple.copy row)
  | Wal.Delete { table; rid; _ } -> Database.replay_delete db ~table rid
  | Wal.Update { table; rid; after; _ } ->
      Database.replay_update db ~table rid (Tuple.copy after)
  | Wal.Ddl { sql; _ } -> (
      (* only successful statements were logged; a replay failure means
         the log and the engine disagree — surface it.  Statement-level
         execution, not [Softdb.exec]: an ONLINE create must replay as
         just the write-only shell, because the build that followed it
         is in the log as Idx_state transitions, never a second
         backfill. *)
      try
        ignore (Softdb.exec_statement sdb (Sqlfe.Parser.parse_statement sql))
      with e ->
        raise
          (Recovery_error
             (Printf.sprintf "replaying %S failed: %s" sql
                (Printexc.to_string e))))
  | Wal.Idx_state { name; state; _ } -> (
      match (Database.find_index_by_name db name, Index.state_of_string state)
      with
      | Some _, Some Index.Readable ->
          (* promote by rebuilding: the log carries no tree image, and a
             rebuild from the recovered heap is consistent by
             construction *)
          ignore (Database.rebuild_index db name : Index.t)
      | Some idx, Some s -> Database.set_index_state db idx s
      | None, _ | _, None -> ())
  | Wal.Sc { change; _ } -> apply_sc_change sdb change

(* An index still [Backfilling] when the log ends was mid-build at the
   crash: its promotion never committed, so the tree's completeness
   cannot be promised.  Demote it — the post-crash invariant is that
   every index is either consistent ([Readable], rebuilt) or demoted,
   never silently half-built. *)
let demote_unfinished_builds sdb =
  let db = Softdb.db sdb in
  List.iter
    (fun idx ->
      match Index.state idx with
      | Index.Backfilling -> Database.set_index_state db idx Index.Demoted
      | Index.Write_only | Index.Readable | Index.Demoted -> ())
    (Database.all_indexes db)

let recover records =
  let sdb = Softdb.create () in
  (* built once: rebuilding it per record makes replay quadratic *)
  let committed = Wal.committed_txns records in
  List.iter
    (fun r -> if committed (Wal.txn_of r) then apply_record sdb r)
    records;
  demote_unfinished_builds sdb;
  sdb

(* ---- salvage-aware recovery ---------------------------------------------- *)

(* The strict replayer above trusts its input; this section is the
   path that faces real, possibly-damaged log files.  Classification
   rule (the torn-tail rule):

   - every unparsable / checksum-failing / LSN-regressing line is
     *corrupt*;
   - if no committed frame appears at or after the first corrupt line,
     the damage is a {e torn tail}: everything from that line on is
     provably uncommitted, so the tail is quarantined to
     [<wal>.salvage], the file truncated at the tear, and recovery
     proceeds — in both modes, as every production WAL does;
   - otherwise the damage is {e interior}: a committed frame follows
     the corruption, so data loss is possible.  [Strict] refuses;
     [Salvage] drops exactly the transactions that were open across a
     corrupt line (their replay would be partial), reports them, and
     applies the rest. *)

type mode = Strict | Salvage

let mode_name = function Strict -> "strict" | Salvage -> "salvage"

type corrupt_line = { lineno : int; reason : string }

type report = {
  mode : mode;
  scanned_lines : int;
  applied_records : int;  (* non-frame records actually replayed *)
  committed_txns : int;  (* distinct committed transactions replayed *)
  dropped_txns : int list;  (* affected by interior corruption, dropped *)
  torn_tail : bool;
  quarantined_bytes : int;
  salvage_path : string option;
  corrupt : corrupt_line list;
}

type analysis = {
  keep : Wal.record list;  (* what the replayer gets *)
  bad : Wal.scanned list;  (* corrupt physical lines, in order *)
  truncate_at : int option;  (* torn tail: byte offset of the tear *)
  partial : report;  (* quarantine fields zeroed; file layer fills them *)
}

let is_commit = function Wal.Commit _ -> true | _ -> false

let analyze ~mode scanned =
  (* one pass: classify each line, checking LSN monotonicity across the
     valid ones (a regression means a stale or spliced line) *)
  let last_lsn = ref 0 in
  let classified =
    List.map
      (fun (s : Wal.scanned) ->
        match s.Wal.parsed with
        | Error reason -> (s, Error reason)
        | Ok r -> (
            match s.Wal.lsn with
            | Some lsn when lsn <= !last_lsn ->
                ( s,
                  Error
                    (Printf.sprintf "LSN regression (%d after %d)" lsn
                       !last_lsn) )
            | Some lsn ->
                last_lsn := lsn;
                (s, Ok r)
            | None -> (s, Ok r)))
      scanned
  in
  let bad =
    List.filter_map
      (fun (s, c) -> match c with Error _ -> Some s | Ok _ -> None)
      classified
  in
  let corrupt =
    List.filter_map
      (fun ((s : Wal.scanned), c) ->
        match c with
        | Error reason -> Some { lineno = s.Wal.lineno; reason }
        | Ok _ -> None)
      classified
  in
  let keep, truncate_at, dropped =
    match bad with
    | [] ->
        ( List.filter_map
            (fun (_, c) -> match c with Ok r -> Some r | Error _ -> None)
            classified,
          None,
          [] )
    | first :: _ ->
        let commit_after =
          List.exists
            (fun ((s : Wal.scanned), c) ->
              s.Wal.lineno > first.Wal.lineno
              && match c with Ok r -> is_commit r | Error _ -> false)
            classified
        in
        if not commit_after then
          (* torn tail: the clean prefix is the whole truth *)
          ( List.filter_map
              (fun ((s : Wal.scanned), c) ->
                match c with
                | Ok r when s.Wal.lineno < first.Wal.lineno -> Some r
                | Ok _ | Error _ -> None)
              classified,
            Some first.Wal.offset,
            [] )
        else begin
          (match mode with
          | Strict ->
              let { lineno; reason } = List.hd corrupt in
              raise
                (Recovery_error
                   (Printf.sprintf
                      "interior corruption at log line %d (%s); a later \
                       frame committed — rerun in salvage mode to drop \
                       the affected transactions"
                      lineno reason))
          | Salvage -> ());
          (* affected = transactions open across any corrupt line: the
             corrupt line may be one of their records (or their commit),
             so replaying them would be partial *)
          let affected = Hashtbl.create 8 in
          let open_txns = Hashtbl.create 8 in
          List.iter
            (fun (_, c) ->
              match c with
              | Ok (Wal.Begin { txn }) -> Hashtbl.replace open_txns txn ()
              | Ok (Wal.Commit { txn } | Wal.Abort { txn }) ->
                  Hashtbl.remove open_txns txn
              | Ok _ -> ()
              | Error _ ->
                  Hashtbl.iter
                    (fun txn () -> Hashtbl.replace affected txn ())
                    open_txns)
            classified;
          ( List.filter_map
              (fun (_, c) ->
                match c with
                | Ok r when not (Hashtbl.mem affected (Wal.txn_of r)) ->
                    Some r
                | Ok _ | Error _ -> None)
              classified,
            None,
            Hashtbl.fold (fun txn () acc -> txn :: acc) affected []
            |> List.sort compare )
        end
  in
  let committed = Wal.committed_txns keep in
  let applied_records =
    List.length
      (List.filter
         (fun r ->
           committed (Wal.txn_of r)
           &&
           match r with
           | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> false
           | _ -> true)
         keep)
  in
  let committed_txns =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> match r with Wal.Commit { txn } -> Some txn | _ -> None)
         keep)
    |> List.length
  in
  {
    keep;
    bad;
    truncate_at;
    partial =
      {
        mode;
        scanned_lines = List.length scanned;
        applied_records;
        committed_txns;
        dropped_txns = dropped;
        torn_tail = truncate_at <> None;
        quarantined_bytes = 0;
        salvage_path = None;
        corrupt;
      };
  }

let register_report sdb (r : report) =
  Database.register_virtual (Softdb.db sdb) ~name:"sys.recovery"
    ~schema:Obs.Sys_tables.recovery_schema (fun () ->
      [
        Obs.Sys_tables.recovery_row ~mode:(mode_name r.mode)
          ~torn_tail:r.torn_tail ~scanned_lines:r.scanned_lines
          ~applied_records:r.applied_records ~committed_txns:r.committed_txns
          ~dropped_txns:r.dropped_txns
          ~corrupt_lines:(List.length r.corrupt)
          ~quarantined_bytes:r.quarantined_bytes
          ~salvage_path:r.salvage_path;
      ])

let recover_scan ?(mode = Strict) scanned =
  let a = analyze ~mode scanned in
  let sdb = recover a.keep in
  register_report sdb a.partial;
  (sdb, a.partial)

let recover_sharded_scan = recover_scan

(* Quarantine and repair the physical file.  [core] does not link unix,
   so truncation is a rewrite: clean prefix to a sibling file, renamed
   over the log (crash-safe, like the checkpoint). *)
let quarantine path chunks =
  let salvage = path ^ ".salvage" in
  let total = List.fold_left (fun n c -> n + String.length c) 0 chunks in
  Out_channel.with_open_gen
    [ Open_append; Open_creat; Open_binary ]
    0o644 salvage
    (fun oc ->
      Printf.fprintf oc "# quarantined %d bytes from %s\n" total path;
      List.iter (Out_channel.output_string oc) chunks;
      match List.rev chunks with
      | last :: _
        when String.length last > 0 && last.[String.length last - 1] <> '\n'
        ->
          Out_channel.output_char oc '\n'
      | _ -> ());
  (salvage, total)

let rewrite_file path contents =
  let tmp = path ^ ".salvtmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc contents);
  Sys.rename tmp path

let recover_file ?(mode = Strict) path =
  let raw, scanned = Wal.scan_file path in
  let a = analyze ~mode scanned in
  let report =
    match a.truncate_at with
    | Some off when off < String.length raw ->
        (* torn tail: quarantine everything from the tear, truncate *)
        let tail = String.sub raw off (String.length raw - off) in
        let salvage, total = quarantine path [ tail ] in
        rewrite_file path (String.sub raw 0 off);
        {
          a.partial with
          quarantined_bytes = total;
          salvage_path = Some salvage;
        }
    | Some _ | None ->
        if a.bad = [] then a.partial
        else begin
          (* interior corruption, salvage mode: quarantine the corrupt
             lines and rewrite the log from the surviving records, so
             the repaired file replays to exactly the recovered state *)
          let chunks =
            List.map
              (fun (s : Wal.scanned) -> String.sub raw s.Wal.offset s.Wal.bytes)
              a.bad
          in
          let salvage, total = quarantine path chunks in
          let buf = Buffer.create (String.length raw) in
          List.iteri
            (fun i r ->
              Buffer.add_string buf (Wal.line_of_record ~lsn:(i + 1) r);
              Buffer.add_char buf '\n')
            a.keep;
          rewrite_file path (Buffer.contents buf);
          {
            a.partial with
            quarantined_bytes = total;
            salvage_path = Some salvage;
          }
        end
  in
  let sdb = recover a.keep in
  register_report sdb report;
  (sdb, report)

(* Recover from a log file and reopen it for appending — the CLI's
   [--wal] startup path.  The file has been salvaged by the time
   {!Wal.open_file} re-reads it, so the strict load cannot trip. *)
let resume ?(mode = Strict) path =
  let sdb, report = recover_file ~mode path in
  let wal = Wal.open_file path in
  let link = attach sdb wal in
  (sdb, link, report)
