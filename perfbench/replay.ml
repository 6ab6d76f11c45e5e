(* The traced replay: the served request stream re-run in one thread,
   calling each layer's public entry points in the order the server
   does, one span per call:

     srv.decode               Srv.Proto.request_of_line
     sqlfe.parse              Sqlfe.Parser.parse_statement
     opt.optimize             Core.Softdb.optimize
     exec.execute             Core.Softdb.execute_report
     core.plan_cache.prepare  Core.Plan_cache.prepare (evicted handle)
     core.plan_cache.execute  Core.Plan_cache.execute
     core.txn.begin/commit    Core.Txn.begin_ / Core.Txn.commit
     core.exec_statement      Core.Softdb.exec_statement (INSERT/DELETE)
     srv.encode               Srv.Proto.response_to_line

   all under one root span [req.<kind>] per operation.  The server also
   records query feedback after each ad-hoc read; that step has no public
   entry point, so its time is part of srv.outside_engine.

   [Core.Softdb.optimize] runs of_query, rewrite and plan inside itself,
   where a span cannot reach.  To split it, every read is followed by a
   separate root span [opt.stages] (same request id) that calls
   [Opt.Logical.of_query], [Opt.Rewrite.rewrite] and
   [Opt.Planner.plan_query] once more; that root is not on the request's
   path and is left out of engine time and of the overhead comparison. *)

type counts = {
  mutable reads : int;
  mutable rows_scanned : int;
  mutable rows_returned : int;
  mutable rewrites : int;
  mutable q_errors : float list;
  mutable alloc_words : float;  (** minor words allocated inside execute *)
  mutable rows_encoded : int;
  mutable rows_inserted : int;
  mutable failures : int;
}

let new_counts () =
  {
    reads = 0;
    rows_scanned = 0;
    rows_returned = 0;
    rewrites = 0;
    q_errors = [];
    alloc_words = 0.0;
    rows_encoded = 0;
    rows_inserted = 0;
    failures = 0;
  }

(* Per-connection session state, as Srv.Session keeps it. *)
type session = { mutable txn : Core.Txn.t option }

type t = {
  sdb : Core.Softdb.t;
  cache : Core.Plan_cache.t;
  prepared_sql : int -> string;
  sessions : session array;
}

(* Like a server: one shared plan cache, and every session prepares all
   handles when it opens. *)
let create sdb ~conns ~prepared ~prepared_sql =
  let cache = Core.Plan_cache.create sdb in
  if prepared then
    for _ = 1 to conns do
      for slot = 0 to Gen.prepared_count - 1 do
        let sql = prepared_sql slot in
        ignore (Core.Plan_cache.find_or_prepare cache ~name:("sql:" ^ sql) sql)
      done
    done;
  { sdb; cache; prepared_sql; sessions = Array.init conns (fun _ -> { txn = None }) }

let note_read counts (report : Opt.Explain.report) (r : Exec.Executor.result) =
  let c = r.Exec.Executor.counters in
  counts.reads <- counts.reads + 1;
  counts.rows_scanned <- counts.rows_scanned + c.Exec.Operators.Counters.rows_scanned;
  let actual = List.length r.Exec.Executor.rows in
  counts.rows_returned <- counts.rows_returned + actual;
  counts.rewrites <- counts.rewrites + List.length report.Opt.Explain.applied;
  counts.q_errors <-
    Obs.Feedback.q_error ~estimated:report.Opt.Explain.estimated_cardinality ~actual
    :: counts.q_errors

let rows_payload (r : Exec.Executor.result) =
  Srv.Proto.Result_set { columns = r.Exec.Executor.columns; rows = r.Exec.Executor.rows }

let timed_execute counts f =
  let w0 = Gc.minor_words () in
  let v = f () in
  counts.alloc_words <- counts.alloc_words +. (Gc.minor_words () -. w0);
  v

let outcome_payload = function
  | Core.Softdb.Rows r -> rows_payload r
  | Core.Softdb.Affected n -> Srv.Proto.Affected n
  | Core.Softdb.Done m -> Srv.Proto.Ok_msg m
  | Core.Softdb.Report _ | Core.Softdb.Analyzed _ -> Srv.Proto.Ok_msg "explained"

(* One wire request, server-side. [queries] collects the parsed reads for
   the opt.stages split. *)
let serve t tr counts ~req ~session ~queries line =
  let span name f = Trace.with_span tr ~req name f in
  let request = span "srv.decode" (fun () -> Srv.Proto.request_of_line line) in
  let payload =
    match request.Srv.Proto.payload with
    | Srv.Proto.Statement sql -> (
        match span "sqlfe.parse" (fun () -> Sqlfe.Parser.parse_statement sql) with
        | Sqlfe.Ast.Query q ->
            queries := q :: !queries;
            let report = span "opt.optimize" (fun () -> Core.Softdb.optimize t.sdb q) in
            let result, _fell_back =
              timed_execute counts (fun () ->
                  span "exec.execute" (fun () ->
                      Core.Softdb.execute_report t.sdb report))
            in
            note_read counts report result;
            rows_payload result
        | stmt ->
            let name =
              match stmt with
              | Sqlfe.Ast.Insert _ -> "core.exec_statement.insert"
              | Sqlfe.Ast.Delete _ -> "core.exec_statement.delete"
              | _ -> "core.exec_statement"
            in
            let outcome =
              span name (fun () ->
                  Core.Softdb.exec_statement t.sdb stmt)
            in
            (match (stmt, outcome) with
            | Sqlfe.Ast.Insert _, Core.Softdb.Affected n ->
                counts.rows_inserted <- counts.rows_inserted + n
            | _ -> ());
            outcome_payload outcome)
    | Srv.Proto.Execute { handle } ->
        let sql = t.prepared_sql (Gen.slot_of_handle handle) in
        let key = "sql:" ^ sql in
        (match Core.Plan_cache.find t.cache key with
        | Some _ -> ()
        | None ->
            ignore
              (span "core.plan_cache.prepare" (fun () ->
                   Core.Plan_cache.prepare t.cache ~name:key sql)));
        let result =
          timed_execute counts (fun () ->
              span "core.plan_cache.execute" (fun () ->
                  Core.Plan_cache.execute t.cache key))
        in
        (match Core.Plan_cache.find t.cache key with
        | Some e -> note_read counts e.Core.Plan_cache.report result
        | None -> ());
        rows_payload result
    | Srv.Proto.Begin_txn ->
        let txn = span "core.txn.begin" (fun () -> Core.Txn.begin_ t.sdb) in
        session.txn <- Some txn;
        Srv.Proto.Ok_msg (Printf.sprintf "transaction %d started" (Core.Txn.id txn))
    | Srv.Proto.Commit_txn ->
        let txn = Option.get session.txn in
        session.txn <- None;
        span "core.txn.commit" (fun () -> Core.Txn.commit txn);
        Srv.Proto.Ok_msg (Printf.sprintf "transaction %d committed" (Core.Txn.id txn))
    | _ -> invalid_arg "Replay.serve: request kind not in any workload"
  in
  (match payload with
  | Srv.Proto.Result_set { rows; _ } ->
      counts.rows_encoded <- counts.rows_encoded + List.length rows
  | _ -> ());
  ignore
    (span "srv.encode" (fun () ->
         Srv.Proto.response_to_line { Srv.Proto.id = request.Srv.Proto.id; payload }))

let stages t tr ~req q =
  let span name f = Trace.with_span tr ~req name f in
  span "opt.stages" (fun () ->
      let logical = span "opt.of_query" (fun () -> Opt.Logical.of_query q) in
      let rewritten, _ =
        span "opt.rewrite" (fun () ->
            Opt.Rewrite.rewrite (Core.Softdb.rewrite_ctx t.sdb) logical)
      in
      ignore
        (span "opt.plan" (fun () ->
             Opt.Planner.plan_query (Core.Softdb.planner_env t.sdb) rewritten)))

(* Replay [ops] (connection, operation) in order; request ids continue
   from [first_req].  With [budget_ns], stops starting operations once
   that much wall time has passed.  Returns the wall time spent on the
   request path in ns (the opt.stages split excluded) and the number of
   operations replayed. *)
let run t tr counts ~first_req ~budget_ns ops =
  let path_ns = ref 0L and done_ = ref 0 in
  let start = Trace.now_ns () in
  let within () =
    match budget_ns with
    | None -> true
    | Some b -> Int64.compare (Int64.sub (Trace.now_ns ()) start) b < 0
  in
  List.iter
    (fun (conn, op) ->
      if within () then begin
        let req = first_req + !done_ in
        incr done_;
        let session = t.sessions.(conn) in
        let lines =
          List.map
            (fun payload -> Srv.Proto.request_to_line { Srv.Proto.id = req; payload })
            (Gen.payloads op)
        in
        let queries = ref [] in
        let t0 = Trace.now_ns () in
        (try
           Trace.with_span tr ~req
             ("req." ^ Gen.kind_name (Gen.op_kind op))
             (fun () -> List.iter (serve t tr counts ~req ~session ~queries) lines)
         with _ ->
           counts.failures <- counts.failures + 1;
           Option.iter
             (fun txn ->
               session.txn <- None;
               try Core.Txn.rollback txn with _ -> ())
             session.txn);
        path_ns := Int64.add !path_ns (Int64.sub (Trace.now_ns ()) t0);
        if tr.Trace.enabled then List.iter (stages t tr ~req) (List.rev !queries)
      end)
    ops;
  (!path_ns, !done_)
