(* A server session: one client's private state over the shared engine.

   Each session owns its transaction state, its prepared-statement
   handles, its settings, and its traffic counters; everything engine-
   shared (the Softdb.t, the plan cache, the metrics registry) arrives
   by reference and is protected by its own discipline — the plan cache
   and registries by internal mutexes, data/catalog/WAL by the
   single-writer lock ({!Rwlock}).

   A session's requests can be pipelined, so two of its jobs may land on
   two worker domains at once; the per-session mutex serializes them,
   which is exactly a session's contract (statements of one session
   execute in order of admission, sessions interleave freely).

   The locking discipline, uniform across every request:
   session mutex → reader/writer lock → engine.  Reads take the shared
   side, mutating statements the exclusive side, and BEGIN takes the
   exclusive side *and keeps it* until COMMIT/ROLLBACK — the
   transaction's statements run under the ownership already held (the
   lock is session-owned and reentrant), so WAL appends and SC catalog
   transitions stay serialized while plain reads fan out between
   transactions.

   Canonical lock-rank table, machine-read by the static lock-order
   lint (Check.Lock_lint; see DESIGN.md §6 and §10).  Locks may only be
   acquired in strictly increasing rank order; every acquisition site
   declares what it takes and what is held with an [@acquires] (or
   [@waits]) annotation, and the lint fails the build on a rank
   inversion or an unannotated acquisition.  The runtime witness
   ({!Obs.Lockdep}) checks the same table against the acquisition
   orders the server actually exhibits; a rank the racecheck traffic
   cannot exercise carries [lockdep-waive] with the reason beside it.

   [srv.scheduler.queue] ranks *above* [db.rwlock]: the scatter runner
   ({!Scatter}) submits partition subtasks to the pool from inside a
   running query, i.e. while the session and read locks are held.
   Nothing acquires session or engine locks while holding the queue
   mutex (workers release it before running a job), so the high rank is
   free.  [srv.scatter.batch] sits just above it: batch bookkeeping
   happens under the same held set plus nothing else.

   [srv.breaker] is a leaf: the circuit breaker ({!Breaker}) decides
   admit/reject with nothing else held and acquires nothing while held
   (its metrics tick after the mutex is released).

   [idx.lifecycle] guards one online index build's bookkeeping
   ({!Idx.Lifecycle}): the builder takes it per batch while holding the
   session and write locks, monitors take it with nothing else held to
   read progress, so it sits just above [db.rwlock].

   @lock-order srv.transport.chan rank=10 lockdep-waive (in-memory pair transport; racecheck traffic is TCP)
   @lock-order srv.transport.write rank=12
   @lock-order srv.breaker rank=15
   @lock-order srv.session rank=20
   @lock-order db.rwlock rank=30 reentrant
   @lock-order idx.lifecycle rank=32
   @lock-order srv.scheduler.queue rank=35
   @lock-order srv.scatter.batch rank=37 lockdep-waive (scatter runs only against partitioned tables)
   @lock-order srv.rwlock.state rank=40
   @lock-order srv.server.registry rank=50
   @lock-order core.plan_cache rank=60
   @lock-order core.recalibration rank=70 lockdep-waive (needs accumulated SSC feedback to fire)
   @lock-order obs.metrics rank=80
   @lock-order obs.query_log rank=85
   @lock-order obs.lockdep rank=95 lockdep-waive (the witness's own mutex is not self-tracked)

   Prepared statements share plans across sessions: the cache key is the
   SQL text itself, so when session B prepares a query session A already
   compiled, B's handle binds to the same entry (a shared-hit metric
   ticks instead of a second optimization). *)

type state = Idle | Active | Closed

(* @guarded-by srv.session — the traffic counters are additionally read
   lock-free by [sys_row], a deliberate stale-tolerant snapshot *)
type t = {
  id : int;
  sdb : Core.Softdb.t;
  cache : Core.Plan_cache.t;
  metrics : Obs.Metrics.t;
  lock : Mutex.t;
  mutable name : string;
  mutable state : state;
  mutable txn : Core.Txn.t option;
  mutable settings : (string * string) list;
  mutable queries : int; (* read statements executed *)
  mutable writes : int; (* mutating statements executed *)
  mutable errors : int;
  prepared : (string, string) Hashtbl.t; (* handle -> SQL text *)
  cancelled : (int, unit) Hashtbl.t; (* request ids cancelled in queue *)
}

let make ~id ~sdb ~cache ~metrics =
  {
    id;
    sdb;
    cache;
    metrics;
    lock = Mutex.create ();
    name = Printf.sprintf "session-%d" id;
    state = Idle;
    txn = None;
    settings = [];
    queries = 0;
    writes = 0;
    errors = 0;
    prepared = Hashtbl.create 8;
    cancelled = Hashtbl.create 8;
  }

let locked t f =
  (* @acquires srv.session *)
  Obs.Lockdep.with_mutex "srv.session" t.lock f

let id t = t.id
let name t = locked t (fun () -> t.name)
let in_txn t = locked t (fun () -> t.txn <> None)

let setting t key =
  locked t (fun () -> List.assoc_opt key t.settings)

let mark_cancelled t target =
  locked t (fun () -> Hashtbl.replace t.cancelled target ())

let is_cancelled t req_id =
  locked t (fun () -> Hashtbl.mem t.cancelled req_id)

let state_string t =
  match t.state with Idle -> "idle" | Active -> "active" | Closed -> "closed"

(* The sys.sessions row; counters are read without the session mutex —
   they are word-sized and a snapshot that is one query stale is fine
   for an observability view. *)
let sys_row t =
  Obs.Sys_tables.session_row ~session_id:t.id ~name:t.name
    ~state:(state_string t) ~in_txn:(t.txn <> None) ~queries:t.queries
    ~writes:t.writes ~errors:t.errors ~prepared:(Hashtbl.length t.prepared)

(* ---- statement execution -------------------------------------------------- *)

let failed code fmt =
  Printf.ksprintf (fun message -> Proto.Failed { code; message }) fmt

(* Engine exceptions, folded to protocol errors the same way the CLI
   folds them to stderr lines.  The final catch-all keeps the protocol
   invariant that every request gets a response: an exception this list
   missed must not leave the client waiting forever.  [Would_block] is
   the one exception that must escape — it is the scheduler's requeue
   signal, not an answer. *)
let guard_engine f =
  try f () with
  | Sqlfe.Parser.Parse_error m -> failed Proto.Parse_error "parse error: %s" m
  | Sqlfe.Lexer.Lex_error (m, pos) ->
      failed Proto.Parse_error "lex error at %d: %s" pos m
  | Rel.Checker.Constraint_violation v ->
      failed Proto.Exec_error "%s" (Fmt.str "%a" Rel.Checker.pp_violation v)
  | Rel.Database.Catalog_error m | Core.Softdb.Error m ->
      failed Proto.Exec_error "%s" m
  | Rel.Table.Row_error m -> failed Proto.Exec_error "row error: %s" m
  | Rel.Expr.Binding.Unresolved r ->
      failed Proto.Exec_error "unknown column: %s"
        (Fmt.str "%a" Rel.Expr.pp_col_ref r)
  | Opt.Planner.Unplannable m -> failed Proto.Exec_error "cannot plan: %s" m
  | Opt.Logical.Unsupported m -> failed Proto.Exec_error "unsupported: %s" m
  | Core.Txn.Transaction_error m -> failed Proto.Txn_error "%s" m
  | Transport.Closed -> failed Proto.Session_closed "connection closed"
  | Scheduler.Would_block as e -> raise e
  | exn -> failed Proto.Exec_error "internal error: %s" (Printexc.to_string exn)

(* Tuple.t is transparently Value.t array, so rows cross the protocol
   boundary without copying. *)
let result_to_payload (r : Exec.Executor.result) =
  Proto.Result_set
    { columns = r.Exec.Executor.columns; rows = r.Exec.Executor.rows }

let outcome_to_payload = function
  | Core.Softdb.Rows r -> result_to_payload r
  | Core.Softdb.Affected n -> Proto.Affected n
  | Core.Softdb.Report report ->
      Proto.Explained (Fmt.str "%a" Opt.Explain.pp report)
  | Core.Softdb.Analyzed a ->
      Proto.Explained (Fmt.str "%a" Opt.Explain.pp_analysis a)
  | Core.Softdb.Done msg -> Proto.Ok_msg msg

let is_read_statement = function
  | Sqlfe.Ast.Query _ | Sqlfe.Ast.Explain _ | Sqlfe.Ast.Explain_analyze _ ->
      true
  | _ -> false

(* Lock acquisition is sliced: try for [lock_slice_s], and on contention
   yield the worker ({!Scheduler.Would_block} sends the job back to the
   queue) instead of blocking it — a worker pool whose workers all wait
   on the write lock would starve the lock holder's own statements.
   Only once the request's real [deadline] passes does the wait fold
   into a Deadline_exceeded answer. *)
let lock_slice_s = 0.01

let slice_deadline deadline =
  let slice = Unix.gettimeofday () +. lock_slice_s in
  match deadline with Some d when d < slice -> d | _ -> slice

let lock_timed_out ~deadline ~write =
  match deadline with
  | Some d when Unix.gettimeofday () > d ->
      (* callers count the Failed payload into t.errors *)
      failed Proto.Deadline_exceeded "could not acquire %s lock in time"
        (if write then "write" else "read")
  | _ -> raise Scheduler.Would_block

let under_lock ~rwlock ~deadline t ~write f =
  let attempt = slice_deadline deadline in
  let locked_run =
    (* @acquires db.rwlock while srv.session *)
    if write then Rwlock.write_locked ~deadline:attempt rwlock ~session:t.id f
    else Rwlock.read_locked ~deadline:attempt rwlock ~session:t.id f
  in
  match locked_run with
  | Some payload -> payload
  | None -> lock_timed_out ~deadline ~write

(* A successful CREATE INDEX ... ONLINE returned after registering only
   the write-only shell; the session now drives the backfill itself —
   one exclusive-lock acquisition per batch, so concurrent readers
   interleave between batches, which is the ONLINE promise.  The request
   deadline bounds the whole build: on expiry the index is demoted
   (never an error — traffic continues against the write-only tree), and
   a unique violation found mid-backfill demotes the same way. *)
let drive_online_build ~rwlock ~deadline t index_name =
  let db = Core.Softdb.db t.sdb in
  match Rel.Database.find_index_by_name db index_name with
  | Some idx when Rel.Index.state idx = Rel.Index.Write_only -> (
      let build = Idx.Lifecycle.start db idx in
      let expired () =
        match deadline with
        | Some d -> Unix.gettimeofday () > d
        | None -> false
      in
      let rec drain () =
        if expired () then
          Idx.Lifecycle.demote build "online build deadline exceeded"
        else
          let stepped =
            (* @acquires db.rwlock while srv.session *)
            Rwlock.write_locked ~deadline:(slice_deadline deadline) rwlock
              ~session:t.id (fun () -> Idx.Lifecycle.step build)
          in
          match stepped with
          | Some true -> drain ()
          | Some false -> ()
          | None -> drain () (* lock contention: retry this batch *)
      in
      drain ();
      match Idx.Lifecycle.finish build with
      | Idx.Lifecycle.Built ->
          Obs.Metrics.incr t.metrics "idx.online_builds";
          Proto.Ok_msg
            (Printf.sprintf "created index %s online (%d rows backfilled)"
               index_name
               (Idx.Lifecycle.progress build).Idx.Lifecycle.p_inserted)
      | Idx.Lifecycle.Demoted_build reason ->
          Obs.Metrics.incr t.metrics "idx.online_demotions";
          Proto.Ok_msg
            (Printf.sprintf "index %s demoted during online build: %s"
               index_name reason))
  | Some _ | None ->
      (* replayed/raced to another state: nothing left to drive *)
      Proto.Ok_msg (Printf.sprintf "created index %s" index_name)

let exec_sql ~rwlock ~deadline t sql =
  guard_engine (fun () ->
      let stmt = Sqlfe.Parser.parse_statement sql in
      let write = not (is_read_statement stmt) in
      let payload =
        under_lock ~rwlock ~deadline t ~write (fun () ->
            guard_engine (fun () ->
                outcome_to_payload (Core.Softdb.exec_statement t.sdb stmt)))
      in
      let payload =
        match (stmt, payload) with
        | ( Sqlfe.Ast.Create_index { index_name; online = true; _ },
            Proto.Ok_msg _ ) ->
            guard_engine (fun () ->
                drive_online_build ~rwlock ~deadline t index_name)
        | _ -> payload
      in
      (match payload with
      | Proto.Failed _ -> t.errors <- t.errors + 1
      | _ -> if write then t.writes <- t.writes + 1 else t.queries <- t.queries + 1);
      payload)

(* Prepared plans are shared across sessions by SQL text: preparing a
   query someone else already compiled binds to the same entry. *)
let cache_key sql = "sql:" ^ sql

let prepare ~rwlock ~deadline t ~handle sql =
  guard_engine (fun () ->
      let payload =
        under_lock ~rwlock ~deadline t ~write:false (fun () ->
            guard_engine (fun () ->
                let _, created =
                  Core.Plan_cache.find_or_prepare t.cache ~name:(cache_key sql)
                    sql
                in
                if not created then
                  Obs.Metrics.incr t.metrics "plan_cache.shared_hits";
                Hashtbl.replace t.prepared handle sql;
                Proto.Ok_msg (Printf.sprintf "prepared %s" handle)))
      in
      payload)

let execute_prepared ~rwlock ~deadline t handle =
  match Hashtbl.find_opt t.prepared handle with
  | None -> failed Proto.Exec_error "no prepared handle %s in this session" handle
  | Some sql ->
      guard_engine (fun () ->
          let payload =
            under_lock ~rwlock ~deadline t ~write:false (fun () ->
                guard_engine (fun () ->
                    (* re-prepare transparently if the shared entry was
                       LRU-evicted since this session bound the handle,
                       then run the entry in hand: looking it up again by
                       name would race with another session's eviction *)
                    let entry, _ =
                      Core.Plan_cache.find_or_prepare t.cache
                        ~name:(cache_key sql) sql
                    in
                    result_to_payload
                      (Core.Plan_cache.execute_entry t.cache entry)))
          in
          (match payload with
          | Proto.Failed _ -> t.errors <- t.errors + 1
          | _ -> t.queries <- t.queries + 1);
          payload)

(* BEGIN takes the write lock and keeps it: the transaction's later
   statements run under this ownership, and COMMIT/ROLLBACK release it.
   A second BEGIN in the same session is an error (no nesting). *)
let begin_txn ~rwlock ~deadline t =
  if t.txn <> None then failed Proto.Txn_error "already in a transaction"
  else if
    (* @acquires db.rwlock while srv.session *)
    not
      (Rwlock.acquire_write ~deadline:(slice_deadline deadline) rwlock
         ~session:t.id)
  then lock_timed_out ~deadline ~write:true
  else begin
    (* the hold spans BEGIN..COMMIT across worker threads, so the
       witness records the acquisition without a per-thread hold *)
    Obs.Lockdep.pulse "db.rwlock";
    match guard_engine (fun () ->
        let txn = Core.Txn.begin_ t.sdb in
        t.txn <- Some txn;
        Proto.Ok_msg (Printf.sprintf "transaction %d started" (Core.Txn.id txn)))
    with
    | Proto.Failed _ as f ->
        Rwlock.release_write rwlock ~session:t.id;
        t.errors <- t.errors + 1;
        f
    | ok ->
        t.writes <- t.writes + 1;
        ok
  end

let end_txn ~rwlock t ~commit =
  match t.txn with
  | None -> failed Proto.Txn_error "no transaction in progress"
  | Some txn ->
      let payload =
        guard_engine (fun () ->
            (if commit then Core.Txn.commit txn else Core.Txn.rollback txn);
            Proto.Ok_msg
              (Printf.sprintf "transaction %d %s" (Core.Txn.id txn)
                 (if commit then "committed" else "rolled back")))
      in
      (* however the commit/rollback went, the transaction is over and
         the engine must not stay wedged behind this session *)
      t.txn <- None;
      Rwlock.release_write rwlock ~session:t.id;
      (match payload with
      | Proto.Failed _ -> t.errors <- t.errors + 1
      | _ -> t.writes <- t.writes + 1);
      payload

(* ---- request dispatch ------------------------------------------------------ *)

(* Runs on a worker domain, under this session's mutex: one session's
   pipelined jobs execute one at a time, in admission order. *)
let handle ~rwlock ~deadline t (payload : Proto.request_payload) :
    Proto.response_payload =
  locked t (fun () ->
      if t.state = Closed then
        failed Proto.Session_closed "session is closed"
      else begin
        t.state <- Active;
        Fun.protect
          ~finally:(fun () -> if t.state = Active then t.state <- Idle)
          (fun () ->
            match payload with
            | Proto.Hello { client } ->
                if client <> "" then t.name <- client;
                Proto.Hello_ok { session = t.id }
            | Proto.Statement sql -> exec_sql ~rwlock ~deadline t sql
            | Proto.Prepare { handle; sql } ->
                prepare ~rwlock ~deadline t ~handle sql
            | Proto.Execute { handle } ->
                execute_prepared ~rwlock ~deadline t handle
            | Proto.Begin_txn -> begin_txn ~rwlock ~deadline t
            | Proto.Commit_txn -> end_txn ~rwlock t ~commit:true
            | Proto.Rollback_txn -> end_txn ~rwlock t ~commit:false
            | Proto.Set { key; value } ->
                t.settings <- (key, value) :: List.remove_assoc key t.settings;
                Proto.Ok_msg (Printf.sprintf "set %s" key)
            | Proto.Cancel _ | Proto.Ping | Proto.Quit ->
                (* handled inline by the connection loop; reaching a
                   worker means a server bug, not a client error *)
                failed Proto.Exec_error "request cannot be queued")
      end)

(* Session teardown, called from the connection loop after Quit or EOF:
   roll back an open transaction, surrender any write ownership, mark
   closed so still-queued jobs answer Session_closed. *)
let close ~rwlock t =
  locked t (fun () ->
      if t.state <> Closed then begin
        (match t.txn with
        | Some txn ->
            (try Core.Txn.rollback txn
             with _ -> Core.Txn.abandon_current ());
            t.txn <- None
        | None -> ());
        Rwlock.forfeit_write rwlock ~session:t.id;
        t.state <- Closed
      end)
