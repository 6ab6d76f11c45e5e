(* Crash-safety tests: the WAL line codec, committed-frame replay, the
   fault-point crash matrix (every registered point gets a simulated
   crash and recovery must land on exactly the pre- or post-transaction
   state), checkpointing, exception-table re-attachment, and the
   SC-guarded plan fallback of paper §4.1. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ---- WAL line codec ------------------------------------------------------ *)

let nasty_row =
  [|
    Value.Int 42;
    Value.Null;
    Value.String "tab\there|and\nnewline\\backslash";
    Value.Float 0.1;
    Value.Bool true;
    Value.Date (Date.of_ymd 1999 6 15);
  |]

let codec_records =
  let snap =
    {
      Wal.sc_name = "s1";
      sc_table = "t";
      sc_absolute = true;
      sc_confidence = 1.0;
      sc_state = "violated";
      sc_anchor = 42;
      sc_violations = 3;
      sc_repr =
        Core.Sc_codec.statement_repr
          (Core.Soft_constraint.Ic_stmt
             (Icdef.Check
                (Expr.Between (Expr.column "b", Expr.int 0, Expr.int 100))));
    }
  in
  [
    Wal.Begin { txn = 7 };
    Wal.Insert { txn = 7; table = "t"; rid = 3; row = nasty_row };
    Wal.Delete { txn = 7; table = "t"; rid = 0; row = nasty_row };
    Wal.Update
      {
        txn = 7;
        table = "t";
        rid = 1;
        before = nasty_row;
        after = [| Value.Int 1; Value.Float (1.0 /. 3.0) |];
      };
    Wal.Ddl { txn = 7; sql = "CREATE TABLE t (a INT)" };
    Wal.Sc { txn = 7; change = Wal.Sc_installed snap };
    Wal.Sc { txn = 7; change = Wal.Sc_state { name = "s1"; state = "active" } };
    Wal.Sc
      {
        txn = 7;
        change = Wal.Sc_kind { name = "s1"; absolute = false; confidence = 0.9 };
      };
    Wal.Sc { txn = 7; change = Wal.Sc_anchor { name = "s1"; anchor = 99 } };
    Wal.Sc { txn = 7; change = Wal.Sc_violations { name = "s1"; count = 2 } };
    Wal.Sc
      {
        txn = 7;
        change = Wal.Sc_statement { name = "s1"; repr = snap.Wal.sc_repr };
      };
    Wal.Sc { txn = 7; change = Wal.Sc_dropped { name = "s1" } };
    Wal.Sc
      { txn = 7; change = Wal.Sc_exception { name = "s1"; table = "s1_exc" } };
    Wal.Commit { txn = 7 };
    Wal.Abort { txn = 8 };
  ]

let test_wal_line_roundtrip () =
  List.iter
    (fun r ->
      let line = Wal.record_to_line r in
      check tbool "single line" false (String.contains line '\n');
      check tbool
        (Printf.sprintf "roundtrip %s" line)
        true
        (Wal.record_of_line line = r))
    codec_records

let test_wal_corrupt_line_rejected () =
  List.iter
    (fun line ->
      match Wal.record_of_line line with
      | exception Wal.Wal_error _ -> ()
      | _ -> Alcotest.failf "accepted corrupt line %S" line)
    [
      "";
      "Z\t1";
      "I\t1\tt";
      "I\t1\tt\t0\t2\tI1";
      (* an older log's segment tag is one trailing integer, no more *)
      "I\t1\tt\t0\t1\tI7\t0\t1";
      "U\t1\tt\t0\t1\tI7\t1\tI8\tx";
    ]

let test_sc_codec_roundtrip () =
  let stmts =
    [
      Core.Soft_constraint.Ic_stmt
        (Icdef.Check
           (Expr.Between (Expr.column "b", Expr.int 0, Expr.int 100)));
      Core.Soft_constraint.Fd_stmt
        { Mining.Fd_mine.table = "t"; lhs = [ "a"; "b" ]; rhs = "c" };
    ]
  in
  List.iter
    (fun stmt ->
      let repr = Core.Sc_codec.statement_repr stmt in
      check tbool "repr fixpoint" true
        (Core.Sc_codec.statement_repr (Core.Sc_codec.statement_of_repr repr)
        = repr))
    stmts

(* ---- shared fixture: a table, five rows, one check-shaped ASC ------------ *)

let fixture () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  for i = 1 to 5 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
  done;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT asc_b CHECK (b < 100) SOFT");
  Core.Recovery.flush link;
  (sdb, wal, link)

(* one explicit transaction that overturns the ASC and commits *)
let probe_commit sdb =
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (11, 22)");
  Core.Txn.commit t

let rows_of sdb =
  let r = Core.Softdb.query_baseline sdb "SELECT a, b FROM t" in
  List.sort compare (List.map Tuple.to_list r.Exec.Executor.rows)

let pre_rows =
  List.init 5 (fun i -> [ Value.Int (i + 1); Value.Int ((i + 1) * 2) ])

let post_rows =
  List.sort compare
    (pre_rows @ [ [ Value.Int 10; Value.Int 500 ]; [ Value.Int 11; Value.Int 22 ] ])

let find_sc sdb name = Core.Sc_catalog.find (Core.Softdb.catalog sdb) name

(* ---- basic durability ---------------------------------------------------- *)

let test_recover_replays_committed_state () =
  let sdb, wal, link = fixture () in
  ignore (Core.Softdb.exec sdb "UPDATE t SET b = 99 WHERE a = 1");
  ignore (Core.Softdb.exec sdb "DELETE FROM t WHERE a = 5");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "rows identical" true (rows_of sdb = rows_of sdb2);
  let sc = Option.get (find_sc sdb2 "asc_b") in
  check tbool "ASC survives" true (Core.Soft_constraint.is_usable sc);
  Core.Recovery.detach link

let test_recover_skips_rolled_back_txn () =
  let sdb, wal, link = fixture () in
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  check tbool "overturned inside txn" false
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb "asc_b")));
  Core.Txn.rollback t;
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")));
  Core.Recovery.detach link

let test_recover_keeps_committed_overturn () =
  let sdb, wal, link = fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "post state" true (rows_of sdb2 = post_rows);
  let sc = Option.get (find_sc sdb2 "asc_b") in
  check tbool "overturn durable" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  check tbool "violated ASC out of the usable set" false
    (List.exists
       (fun s -> s.Core.Soft_constraint.name = "asc_b")
       (Core.Sc_catalog.usable (Core.Softdb.catalog sdb2)));
  Core.Recovery.detach link

(* ---- the crash matrix (every registered fault point) --------------------- *)

let run_crashed_probe point =
  let sdb, wal, link = fixture () in
  Obs.Fault.arm point Obs.Fault.Crash;
  let crashed =
    try
      probe_commit sdb;
      false
    with Obs.Fault.Injected_crash _ -> true
  in
  Core.Txn.abandon_current ();
  Core.Recovery.kill link;
  Obs.Fault.reset ();
  (crashed, Core.Recovery.recover (Wal.records wal))

let test_crash_matrix () =
  (* a first fixture registers every fault point with the harness *)
  let _ = fixture () in
  let points = Obs.Fault.registered () in
  check tbool "matrix covers the fault points" true (List.length points >= 11);
  List.iter
    (fun pt ->
      let crashed, sdb2 = run_crashed_probe pt in
      let rows = rows_of sdb2 in
      let committed = rows = post_rows in
      (* atomicity: never a state in between *)
      check tbool (pt ^ ": pre or post state, nothing between") true
        (rows = pre_rows || committed);
      if not crashed then
        check tbool (pt ^ ": point unhit, so the probe committed") true
          committed;
      let sc = Option.get (find_sc sdb2 "asc_b") in
      if committed then begin
        check tbool (pt ^ ": committed overturn sticks") true
          (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
        check tbool (pt ^ ": violated ASC never re-enters the usable set")
          false
          (List.exists
             (fun s -> s.Core.Soft_constraint.name = "asc_b")
             (Core.Sc_catalog.usable (Core.Softdb.catalog sdb2)))
      end
      else
        check tbool (pt ^ ": uncommitted overturn re-instates the ASC") true
          (Core.Soft_constraint.is_usable sc))
    points;
  (* pin the headline points to their exact outcome *)
  let expect_pre pt =
    let crashed, sdb2 = run_crashed_probe pt in
    check tbool (pt ^ ": crashed") true crashed;
    check tbool (pt ^ ": pre state exactly") true (rows_of sdb2 = pre_rows)
  in
  expect_pre "txn.begin";
  expect_pre "wal.pre_commit";
  let crashed, sdb2 = run_crashed_probe "wal.post_commit" in
  check tbool "wal.post_commit: crashed" true crashed;
  check tbool "wal.post_commit: durable commit" true (rows_of sdb2 = post_rows)

let test_crash_during_rollback () =
  (* a crash in the middle of rollback: compensation never ran in memory,
     but the frame has no commit record, so recovery lands on pre-state
     with the ASC re-instated *)
  let sdb, wal, link = fixture () in
  Obs.Fault.arm "txn.rollback" Obs.Fault.Crash;
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  (try Core.Txn.rollback t with Obs.Fault.Injected_crash _ -> ());
  Core.Txn.abandon_current ();
  Core.Recovery.kill link;
  Obs.Fault.reset ();
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")))

(* ---- the other fault modes ----------------------------------------------- *)

let test_io_error_is_single_shot () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_io" ".wal" in
  let sdb = Core.Softdb.create () in
  let wal = Wal.open_file path in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  Core.Recovery.flush link;
  Obs.Fault.arm "wal.io" Obs.Fault.Io_error;
  (match Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)" with
  | exception Obs.Fault.Injected_io_error _ -> ()
  | _ -> Alcotest.fail "expected the injected I/O error");
  check tbool "hit counted" true (Obs.Fault.hits "wal.io" >= 1);
  (* the failure does not stop the world: the next statement logs fine *)
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (2, 4)");
  Core.Recovery.flush link;
  Obs.Fault.reset ();
  let sdb2 = Core.Recovery.recover (Wal.load_file path) in
  check tbool "surviving insert recovered" true
    (List.mem [ Value.Int 2; Value.Int 4 ] (rows_of sdb2));
  Core.Recovery.detach link;
  Wal.close wal;
  Sys.remove path

let test_latency_counts_hits () =
  Obs.Fault.reset ();
  Obs.Fault.arm "wal.append" (Obs.Fault.Latency 0.001);
  let sdb, _, link = fixture () in
  ignore sdb;
  check tbool "latency point hit" true (Obs.Fault.hits "wal.append" > 0);
  Obs.Fault.disarm "wal.append";
  Obs.Fault.reset ();
  Core.Recovery.detach link

(* ---- checkpointing ------------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  let sdb, wal, link = fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  Core.Recovery.checkpoint link;
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (12, 24)");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "checkpoint + tail replayed" true
    (rows_of sdb2
    = List.sort compare ([ Value.Int 12; Value.Int 24 ] :: post_rows));
  let sc = Option.get (find_sc sdb2 "asc_b") in
  check tbool "violated state captured by checkpoint" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  Core.Recovery.detach link

let test_checkpoint_rejected_inside_txn () =
  let sdb, _, link = fixture () in
  let t = Core.Txn.begin_ sdb in
  (match Core.Recovery.checkpoint link with
  | exception Core.Recovery.Recovery_error _ -> ()
  | () -> Alcotest.fail "checkpoint accepted inside a transaction");
  Core.Txn.rollback t;
  Core.Recovery.detach link

let test_checkpoint_crash_preserves_log () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_ckpt" ".wal" in
  let sdb = Core.Softdb.create () in
  let wal = Wal.open_file path in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)");
  Core.Recovery.flush link;
  let before = Wal.load_file path in
  Obs.Fault.arm "wal.checkpoint" Obs.Fault.Crash;
  (try Core.Recovery.checkpoint link
   with Obs.Fault.Injected_crash _ -> ());
  Obs.Fault.reset ();
  (* the rename never happened: the original log is intact and recoverable *)
  let after = Wal.load_file path in
  check tint "log untouched" (List.length before) (List.length after);
  let sdb2 = Core.Recovery.recover after in
  check tbool "recoverable" true
    (rows_of sdb2 = [ [ Value.Int 1; Value.Int 2 ] ]);
  Core.Recovery.kill link;
  Wal.close wal;
  Sys.remove path;
  if Sys.file_exists (path ^ ".ckpt") then Sys.remove (path ^ ".ckpt")

(* ---- file sink resume (the CLI --wal path) ------------------------------- *)

let test_file_resume () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_resume" ".wal" in
  Sys.remove path;
  let sdb, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)");
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT asc_b CHECK (b < 100) SOFT");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let sdb2, link2, _ = Core.Recovery.resume path in
  check tbool "state recovered" true
    (rows_of sdb2 = [ [ Value.Int 1; Value.Int 2 ] ]);
  check tbool "ASC recovered" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")));
  ignore (Core.Softdb.exec sdb2 "INSERT INTO t VALUES (2, 4)");
  Core.Recovery.detach link2;
  Wal.close (Core.Recovery.wal link2);
  let sdb3, link3, _ = Core.Recovery.resume path in
  check tint "appended across sessions" 2
    (List.length (rows_of sdb3));
  Core.Recovery.detach link3;
  Wal.close (Core.Recovery.wal link3);
  Sys.remove path

(* ---- exception tables across recovery ------------------------------------ *)

let exc_count sdb =
  Table.cardinality (Database.table_exn (Core.Softdb.db sdb) "late_exc")

let violating_purchase_insert =
  "INSERT INTO purchase VALUES (900001, 1, DATE '1999-01-05', DATE \
   '1999-06-15', 100.0, 3, 'north')"

let test_exception_table_ddl_replay () =
  (* exception table created after the checkpoint: recovery re-executes
     the CREATE EXCEPTION TABLE statement and re-populates it from the
     replayed base table *)
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 800 }
    (Core.Softdb.db sdb);
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_exc FOR CONSTRAINT ship_3w");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tint "same exceptions" (exc_count sdb) (exc_count sdb2);
  check tbool "registration recovered" true
    (Core.Sc_catalog.exception_table_for (Core.Softdb.catalog sdb2) "ship_3w"
    = Some "late_exc");
  Core.Recovery.detach link

let test_exception_table_reattach () =
  (* exception table inside the checkpoint image: recovery must re-attach
     (rows come from the log; re-populating would duplicate them) and the
     maintenance listener must keep working afterwards *)
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 800 }
    (Core.Softdb.db sdb);
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_exc FOR CONSTRAINT ship_3w");
  Core.Recovery.checkpoint link;
  let n = exc_count sdb in
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tint "no duplicated exceptions" n (exc_count sdb2);
  (* the re-attached listener still routes new violators *)
  ignore (Core.Softdb.exec sdb2 violating_purchase_insert);
  check tint "listener live after reattach" (n + 1) (exc_count sdb2);
  Core.Recovery.detach link

(* ---- guarded execution (§4.1 flag-and-revert) ---------------------------- *)

let band_fixture () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows = 3000; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"band" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  sdb

let test_guarded_plan_falls_back () =
  let sdb = band_fixture () in
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let query = Sqlfe.Parser.parse_query_string sql in
  let report = Core.Softdb.optimize sdb query in
  check tbool "plan is guarded by the band" true
    (List.mem "band" report.Opt.Explain.guards);
  check tbool "backup plan compiled" true
    (report.Opt.Explain.backup_plan <> None);
  let metric () =
    Obs.Metrics.counter (Core.Softdb.metrics sdb) "sc_guard_fallbacks"
  in
  let r0, fb0 = Core.Softdb.execute_report sdb report in
  check tbool "guards valid: fast plan" false fb0;
  check tbool "fast plan correct" true
    (Exec.Executor.same_rows (Core.Softdb.query_baseline sdb sql) r0);
  let before = metric () in
  (* overturn the guarding ASC between planning and execution: the fast
     plan's introduced range would miss the January order below *)
  ignore (Core.Softdb.exec sdb violating_purchase_insert);
  check tbool "guard invalid now" false (Core.Softdb.guard_ok sdb "band");
  let r1, fb1 = Core.Softdb.execute_report sdb report in
  check tbool "degraded to the backup plan" true fb1;
  check tint "fallback counted" (before + 1) (metric ());
  check tbool "identical results via backup" true
    (Exec.Executor.same_rows (Core.Softdb.query_baseline sdb sql) r1);
  check tbool "new row visible" true
    (List.exists
       (fun row -> Tuple.get row 0 = Value.Int 900001)
       r1.Exec.Executor.rows)

let test_violated_asc_out_of_rewrites_after_recovery () =
  (* committed overturn: after recovery the band must not re-enter the
     rewrite set; uncommitted overturn: it must *)
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let cites_band sdb =
    List.exists
      (fun a -> a.Opt.Rewrite.sc = Some "band")
      (Core.Softdb.explain sdb sql).Opt.Explain.applied
  in
  (* A: the overturning statement committed *)
  let sdb = band_fixture () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  check tbool "band cited before overturn" true (cites_band sdb);
  ignore (Core.Softdb.exec sdb violating_purchase_insert);
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  Core.Softdb.runstats sdb2;
  check tbool "A: overturn durable" true
    ((Option.get (find_sc sdb2 "band")).Core.Soft_constraint.state
    = Core.Soft_constraint.Violated);
  check tbool "A: violated band never re-enters rewrites" false
    (cites_band sdb2);
  check tbool "A: answers still sound" true
    (Exec.Executor.same_rows
       (Core.Softdb.query_baseline sdb2 sql)
       (Core.Softdb.query sdb2 sql));
  Core.Recovery.detach link;
  (* B: the overturning transaction crashed before its commit record *)
  let sdb = band_fixture () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb violating_purchase_insert);
  Obs.Fault.arm "wal.pre_commit" Obs.Fault.Crash;
  (try Core.Txn.commit t with Obs.Fault.Injected_crash _ -> ());
  Core.Txn.abandon_current ();
  Core.Recovery.kill link;
  Obs.Fault.reset ();
  let sdb3 = Core.Recovery.recover (Wal.records wal) in
  Core.Softdb.runstats sdb3;
  check tbool "B: ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb3 "band")));
  check tbool "B: band back in the rewrite set" true (cites_band sdb3);
  check tbool "B: crashed row absent" false
    (List.exists
       (fun row -> Tuple.get row 0 = Value.Int 900001)
       (Core.Softdb.query_baseline sdb3 "SELECT * FROM purchase")
         .Exec.Executor.rows)

(* ---- Txn.rollback collects listener failures (satellite b) --------------- *)

let test_rollback_incomplete_keeps_compensating () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT)");
  ignore (Core.Softdb.exec sdb "CREATE TABLE u (a INT)");
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO u VALUES (1)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (1)");
  (* dropping t makes its compensating delete impossible; the rollback
     must still undo u's insert and report the failure *)
  ignore (Core.Softdb.exec sdb "DROP TABLE t");
  (match Core.Txn.rollback t with
  | exception Core.Txn.Rollback_incomplete errors ->
      check tbool "failures collected" true (List.length errors >= 1)
  | () -> Alcotest.fail "expected Rollback_incomplete");
  check tint "u compensated anyway" 0
    (Table.cardinality (Database.table_exn (Core.Softdb.db sdb) "u"))

(* ---- the salvage matrix (WAL v2: CRC + LSN, torn tails, bit flips) ------- *)

let read_bytes p = In_channel.with_open_bin p In_channel.input_all

let cleanup_wal path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".salvage"; path ^ ".ckpt"; path ^ ".salvtmp" ]

(* a real file-sink WAL holding the shared fixture's committed state *)
let file_fixture () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_salvage" ".wal" in
  Sys.remove path;
  let sdb, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  for i = 1 to 5 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
  done;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT asc_b CHECK (b < 100) SOFT");
  Core.Recovery.flush link;
  (sdb, link, path)

(* run the overturning probe with a write fault armed at [point]; freeze
   the log at the crash instant (partial bytes included) and return the
   path *)
let torn_probe ~point ~after mode =
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after point mode;
  (try probe_commit sdb with Obs.Fault.Injected_crash _ -> ());
  Core.Txn.abandon_current ();
  Core.Recovery.kill link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  path

let recovery_row sdb =
  match
    (Core.Softdb.query_baseline sdb
       "SELECT mode, torn_tail, dropped_txns, corrupt_lines FROM sys.recovery")
      .Exec.Executor.rows
  with
  | [ row ] -> Tuple.to_list row
  | rows -> Alcotest.failf "sys.recovery has %d rows" (List.length rows)

let test_v2_line_codec () =
  List.iteri
    (fun i r ->
      let line = Wal.line_of_record ~lsn:(i + 1) r in
      (match Wal.parse_line line with
      | Ok (Some lsn, r') ->
          check tint "lsn roundtrip" (i + 1) lsn;
          check tbool "record roundtrip" true (r' = r)
      | Ok (None, _) -> Alcotest.fail "v2 line parsed as v1"
      | Error m -> Alcotest.failf "v2 line rejected: %s" m);
      (* v1 payloads still parse *)
      (match Wal.parse_line (Wal.record_to_line r) with
      | Ok (None, r') -> check tbool "v1 still readable" true (r' = r)
      | Ok (Some _, _) | Error _ -> Alcotest.fail "v1 line misparsed");
      (* any single corrupted byte must be caught *)
      let b = Bytes.of_string line in
      let pos = String.length line / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      match Wal.parse_line (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flipped byte accepted in %S" line)
    codec_records

let test_torn_tail_mid_record () =
  (* the tear hits the probe's first data record: everything before the
     tear replays byte-identically, the tail is quarantined *)
  let path = torn_probe ~point:"wal.io" ~after:1 (Obs.Fault.Torn_write 10) in
  let untorn = Core.Recovery.recover (Wal.scan_string (read_bytes path)
                                      |> List.filter_map (fun (s : Wal.scanned) ->
                                             match s.Wal.parsed with
                                             | Ok r -> Some r
                                             | Error _ -> None)) in
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "pre state (probe txn torn away)" true (rows_of sdb2 = pre_rows);
  check tbool "identical to clean-prefix replay" true
    (rows_of sdb2 = rows_of untorn);
  check tbool "torn tail flagged" true report.Core.Recovery.torn_tail;
  check tbool "bytes quarantined" true
    (report.Core.Recovery.quarantined_bytes > 0);
  check tbool "salvage file written" true
    (Sys.file_exists (path ^ ".salvage"));
  check tbool "no dropped txns (tail was uncommitted)" true
    (report.Core.Recovery.dropped_txns = []);
  (* the truncated log is clean: a second, strict pass replays equal *)
  let sdb3 = Core.Recovery.recover (Wal.load_file path) in
  check tbool "repaired log replays equal" true (rows_of sdb3 = rows_of sdb2);
  (match recovery_row sdb2 with
  | [ Value.String "strict"; Value.Bool true; _; Value.Int c ] ->
      check tbool "corrupt line counted" true (c >= 1)
  | row ->
      Alcotest.failf "unexpected sys.recovery row: %s"
        (String.concat "," (List.map Value.to_string row)));
  cleanup_wal path

let test_torn_tail_mid_commit () =
  (* Begin + both inserts land; the commit record itself is torn: the
     frame never committed, recovery lands on pre-state *)
  let path = torn_probe ~point:"wal.io" ~after:3 (Obs.Fault.Torn_write 7) in
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "torn tail flagged" true report.Core.Recovery.torn_tail;
  check tbool "ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")));
  (* the quarantine holds the torn bytes *)
  let salvaged = read_bytes (path ^ ".salvage") in
  check tbool "quarantine non-empty" true (String.length salvaged > 0);
  cleanup_wal path

let test_torn_checkpoint_preserves_log () =
  (* a torn write inside the checkpoint rewrite dies before the rename:
     the original log survives untouched *)
  let sdb, link, path = file_fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  let before = read_bytes path in
  Obs.Fault.arm "wal.checkpoint" (Obs.Fault.Torn_write 12);
  (match Core.Recovery.checkpoint link with
  | exception Obs.Fault.Injected_crash _ -> ()
  | () -> Alcotest.fail "expected the torn checkpoint to crash");
  Core.Recovery.kill link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  check tbool "log bytes untouched" true (read_bytes path = before);
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "post state recovered" true (rows_of sdb2 = post_rows);
  check tbool "no tear in the log itself" false report.Core.Recovery.torn_tail;
  cleanup_wal path

let test_bit_flip_before_last_commit () =
  (* silent corruption of a mid-transaction record, then the commit
     lands: interior corruption.  Strict refuses; salvage drops exactly
     that transaction and reports it. *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 5);
  probe_commit sdb;
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  (match Core.Recovery.recover_file path with
  | exception Core.Recovery.Recovery_error _ -> ()
  | _ -> Alcotest.fail "strict mode accepted interior corruption");
  let sdb2, report =
    Core.Recovery.recover_file ~mode:Core.Recovery.Salvage path
  in
  check tbool "affected txn dropped" true
    (List.length report.Core.Recovery.dropped_txns = 1);
  check tbool "pre state (probe dropped whole)" true (rows_of sdb2 = pre_rows);
  check tbool "interior, not torn" false report.Core.Recovery.torn_tail;
  check tbool "corrupt line quarantined" true
    (Sys.file_exists (path ^ ".salvage"));
  (* the rewritten log replays to exactly the salvaged state, strictly *)
  let sdb3 = Core.Recovery.recover (Wal.load_file path) in
  check tbool "repaired log replays equal" true (rows_of sdb3 = rows_of sdb2);
  (match recovery_row sdb2 with
  | [ Value.String "salvage"; Value.Bool false; Value.String dropped; _ ] ->
      check tbool "dropped txn listed" true (String.length dropped > 0)
  | row ->
      Alcotest.failf "unexpected sys.recovery row: %s"
        (String.concat "," (List.map Value.to_string row)));
  cleanup_wal path

let test_bit_flip_after_last_commit () =
  (* the flipped record belongs to a transaction that never committed:
     corruption strictly after the last committed frame is a torn tail,
     salvaged even in strict mode *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 9);
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  ignore t;
  Core.Txn.abandon_current ();
  Core.Recovery.kill link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "classified as torn tail" true report.Core.Recovery.torn_tail;
  check tbool "nothing dropped" true (report.Core.Recovery.dropped_txns = []);
  cleanup_wal path

let test_lsn_regression_detected () =
  (* a stale line spliced onto the tail (duplicated LSN) is corruption
     even though its checksum is fine *)
  let _, link, path = file_fixture () in
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let raw = read_bytes path in
  let lines = String.split_on_char '\n' raw in
  let dup = List.nth lines 2 in
  Out_channel.with_open_gen
    [ Open_append; Open_binary ] 0o644 path
    (fun oc -> Out_channel.output_string oc (dup ^ "\n"));
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "spliced line cut as torn tail" true
    report.Core.Recovery.torn_tail;
  check tbool "fixture state intact" true (rows_of sdb2 = pre_rows);
  check tbool "reason names the regression" true
    (List.exists
       (fun (c : Core.Recovery.corrupt_line) ->
         String.length c.Core.Recovery.reason >= 3)
       report.Core.Recovery.corrupt);
  cleanup_wal path

let test_salvage_scan_matches_file () =
  (* the pure scan path and the file path make the identical salvage
     decisions, and a later autocommit survives the dropped frame *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 5);
  probe_commit sdb;
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (20, 40)");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  let scanned = Wal.scan_string (read_bytes path) in
  let scan, scan_report =
    Core.Recovery.recover_scan ~mode:Core.Recovery.Salvage scanned
  in
  let file, file_report =
    Core.Recovery.recover_file ~mode:Core.Recovery.Salvage path
  in
  check tbool "same rows" true (rows_of scan = rows_of file);
  check tbool "same dropped txns" true
    (scan_report.Core.Recovery.dropped_txns
    = file_report.Core.Recovery.dropped_txns);
  check tbool "later autocommit survives the drop" true
    (List.mem [ Value.Int 20; Value.Int 40 ] (rows_of scan));
  cleanup_wal path

(* ---- recovery edge cases -------------------------------------------------- *)

let test_zero_length_log () =
  let path = Filename.temp_file "softdb_empty" ".wal" in
  let sdb, report = Core.Recovery.recover_file path in
  check tint "nothing scanned" 0 report.Core.Recovery.scanned_lines;
  check tbool "no tear" false report.Core.Recovery.torn_tail;
  check tbool "fresh database" true
    (Database.table_names (Core.Softdb.db sdb) = []);
  (* resume on the same empty file works and can write *)
  let sdb2, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb2 "CREATE TABLE t (a INT)");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  cleanup_wal path

let test_log_ends_at_commit_boundary () =
  (* the file's last line is a commit record: nothing to salvage, every
     committed frame replays *)
  let sdb, link, path = file_fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let raw = read_bytes path in
  check tbool "fixture ends in newline" true
    (raw.[String.length raw - 1] = '\n');
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "post state" true (rows_of sdb2 = post_rows);
  check tbool "clean" true
    ((not report.Core.Recovery.torn_tail)
    && report.Core.Recovery.corrupt = []);
  check tbool "commit count positive" true
    (report.Core.Recovery.committed_txns > 0);
  cleanup_wal path

let test_ckpt_present_empty_tail () =
  (* a leftover .ckpt sibling (crashed checkpoint) next to a log
     truncated to zero: recovery of the log itself succeeds empty and
     never reads the sibling *)
  let _, link, path = file_fixture () in
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let raw = read_bytes path in
  Out_channel.with_open_bin (path ^ ".ckpt") (fun oc ->
      Out_channel.output_string oc raw);
  Out_channel.with_open_bin path (fun _ -> ());
  let sdb2, report = Core.Recovery.recover_file path in
  check tint "empty tail scanned" 0 report.Core.Recovery.scanned_lines;
  check tbool "sibling ignored" true
    (Database.table_names (Core.Softdb.db sdb2) = []);
  check tbool "ckpt sibling still on disk" true
    (Sys.file_exists (path ^ ".ckpt"));
  cleanup_wal path

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "recovery"
    [
      ( "wal",
        [
          Alcotest.test_case "line roundtrip" `Quick test_wal_line_roundtrip;
          Alcotest.test_case "corrupt lines rejected" `Quick
            test_wal_corrupt_line_rejected;
          Alcotest.test_case "sc codec roundtrip" `Quick
            test_sc_codec_roundtrip;
        ] );
      ( "replay",
        [
          Alcotest.test_case "committed state" `Quick
            test_recover_replays_committed_state;
          Alcotest.test_case "rolled-back txn skipped" `Quick
            test_recover_skips_rolled_back_txn;
          Alcotest.test_case "committed overturn kept" `Quick
            test_recover_keeps_committed_overturn;
        ] );
      ( "crash_matrix",
        [
          Alcotest.test_case "every fault point" `Quick test_crash_matrix;
          Alcotest.test_case "crash during rollback" `Quick
            test_crash_during_rollback;
          Alcotest.test_case "io error single shot" `Quick
            test_io_error_is_single_shot;
          Alcotest.test_case "latency counts hits" `Quick
            test_latency_counts_hits;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "rejected inside txn" `Quick
            test_checkpoint_rejected_inside_txn;
          Alcotest.test_case "crash preserves log" `Quick
            test_checkpoint_crash_preserves_log;
          Alcotest.test_case "file resume" `Quick test_file_resume;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "ddl replay repopulates" `Quick
            test_exception_table_ddl_replay;
          Alcotest.test_case "checkpoint reattaches" `Quick
            test_exception_table_reattach;
        ] );
      ( "guards",
        [
          Alcotest.test_case "stale plan falls back" `Quick
            test_guarded_plan_falls_back;
          Alcotest.test_case "violated ASC out of rewrites after recovery"
            `Quick test_violated_asc_out_of_rewrites_after_recovery;
        ] );
      ( "txn",
        [
          Alcotest.test_case "rollback incomplete keeps compensating" `Quick
            test_rollback_incomplete_keeps_compensating;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "v2 line codec" `Quick test_v2_line_codec;
          Alcotest.test_case "torn tail mid-record" `Quick
            test_torn_tail_mid_record;
          Alcotest.test_case "torn tail mid-commit" `Quick
            test_torn_tail_mid_commit;
          Alcotest.test_case "torn checkpoint preserves log" `Quick
            test_torn_checkpoint_preserves_log;
          Alcotest.test_case "bit flip before last commit" `Quick
            test_bit_flip_before_last_commit;
          Alcotest.test_case "bit flip after last commit" `Quick
            test_bit_flip_after_last_commit;
          Alcotest.test_case "lsn regression" `Quick
            test_lsn_regression_detected;
          Alcotest.test_case "salvage scan matches file" `Quick
            test_salvage_scan_matches_file;
        ] );
      ( "edges",
        [
          Alcotest.test_case "zero-length log" `Quick test_zero_length_log;
          Alcotest.test_case "log ends at commit boundary" `Quick
            test_log_ends_at_commit_boundary;
          Alcotest.test_case "ckpt sibling, empty tail" `Quick
            test_ckpt_present_empty_tail;
        ] );
    ]
