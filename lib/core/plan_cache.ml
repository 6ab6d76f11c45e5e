(* Prepared plans and ASC invalidation (paper §4.1).

   "A worse expense for ASC violations is that every pre-compiled query
   plan that employs a violated ASC in its plan must be dropped …  One
   possible tactic is for a package to incorporate a 'backup' plan which
   is ASC-free.  If an ASC is overturned, a flag is raised and packages
   revert to the alternative plans."

   A prepared entry keeps the optimized plan together with the names of
   the soft constraints its rewrites relied on (from the rewrite log) and
   a backup plan compiled with the whole soft-constraint machinery off.
   Execution checks the dependencies against the live catalog: if every
   *rewrite-critical* dependency is still Active the fast plan runs;
   otherwise the entry flips to the backup.  Dependencies that are
   estimation-only (twins) never invalidate — a plan chosen under stale
   statistics is merely sub-optimal, exactly the paper's reading.
   [reprepare] re-optimizes invalidated entries against the current
   catalog, the "recompiled before they can be used again" path.

   The cache is bounded: past [capacity] entries the least-recently-used
   one is evicted (prepare-or-execute counts as use), the eviction tallied
   in [stats] and in the plan_cache.evictions metric.  Entry-list and
   recency bookkeeping are mutex-guarded because one cache is shared by
   every server session (lib/srv); optimization itself runs outside the
   lock so a slow prepare never blocks another session's execute. *)

(* @guarded-by core.plan_cache *)
type entry = {
  name : string;
  sql : string;
  query : Sqlfe.Ast.query;
  mutable report : Opt.Explain.report;
  mutable deps : string list; (* SCs whose validity the plan relies on *)
  mutable backup : Exec.Plan.t; (* soft-constraint-free alternative *)
  mutable obj_tables : string list; (* tables any compiled plan opens *)
  mutable obj_indexes : string list; (* indexes any compiled plan probes *)
  mutable invalidated : bool;
  mutable fast_runs : int;
  mutable backup_runs : int;
  mutable last_used : int; (* recency stamp for LRU eviction *)
}

(* @guarded-by core.plan_cache *)
type t = {
  sdb : Softdb.t;
  capacity : int;
  lock : Mutex.t;
  mutable use_seq : int;
  mutable evictions : int;
  mutable entries : entry list;
}

exception No_such_plan of string

let default_capacity = 64

let locked t f =
  (* @acquires core.plan_cache while srv.session db.rwlock *)
  Obs.Lockdep.with_mutex "core.plan_cache" t.lock f

(* Rewrite-critical dependencies: every SC a non-estimation-only rewrite
   relied on.  Twins (estimation-only) are excluded.  The report's guard
   set is exactly this (with class-level attribution for rules that log
   no constraint name), computed by {!Softdb.optimize}. *)
let dependencies_of (report : Opt.Explain.report) = report.Opt.Explain.guards

let touch t entry =
  t.use_seq <- t.use_seq + 1;
  entry.last_used <- t.use_seq

(* Evict least-recently-used entries until the count fits the capacity;
   caller holds the lock. *)
let enforce_capacity t =
  while List.length t.entries > t.capacity do
    let victim =
      List.fold_left
        (fun acc e ->
          match acc with
          | None -> Some e
          | Some v -> if e.last_used < v.last_used then Some e else acc)
        None t.entries
    in
    match victim with
    | None -> ()
    | Some v ->
        t.entries <- List.filter (fun e -> e != v) t.entries;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr (Softdb.metrics t.sdb) "plan_cache.evictions"
  done

(* Compilation happens outside the cache lock — optimize is expensive
   and takes engine-side locks of its own. *)
let compile t sql =
  let query = Sqlfe.Parser.parse_query_string sql in
  let report = Softdb.optimize t.sdb query in
  let backup =
    (Softdb.optimize ~flags:Opt.Rewrite.all_off t.sdb query).Opt.Explain.plan
  in
  (query, report, backup)

(* Catalog objects any of the entry's compiled plans dereference at
   open: fast plan, SC-free backup, and the report's own guarded backup.
   DDL against one of them — DROP TABLE, DROP INDEX, an index demotion —
   makes the compiled plans unrunnable (not merely sub-optimal, as SC
   invalidation does), so execution must re-prepare from SQL first. *)
let plan_objects (report : Opt.Explain.report) backup =
  let plans =
    report.Opt.Explain.plan :: backup
    :: Option.to_list report.Opt.Explain.backup_plan
  in
  ( List.sort_uniq String.compare
      (List.concat_map Exec.Plan.referenced_tables plans),
    List.sort_uniq String.compare
      (List.concat_map Exec.Plan.referenced_indexes plans) )

let fresh_entry ~name ~sql ~query ~report ~backup =
  let obj_tables, obj_indexes = plan_objects report backup in
  {
    name;
    sql;
    query;
    report;
    deps = dependencies_of report;
    backup;
    obj_tables;
    obj_indexes;
    invalidated = false;
    fast_runs = 0;
    backup_runs = 0;
    last_used = 0;
  }

let prepare t ~name sql =
  let query, report, backup = compile t sql in
  locked t (fun () ->
      let entry = fresh_entry ~name ~sql ~query ~report ~backup in
      touch t entry;
      t.entries <- entry :: List.filter (fun e -> e.name <> name) t.entries;
      enforce_capacity t;
      entry)

let find t name =
  locked t (fun () -> List.find_opt (fun e -> e.name = name) t.entries)

let find_or_prepare t ~name sql =
  match find t name with
  | Some e -> (e, false)
  | None ->
      let query, report, backup = compile t sql in
      (* re-check under the lock: sessions prepare concurrently under a
         shared read lock, so two of them can both miss above and both
         compile — without this, the second insert would replace the
         first and the sharing metric would undercount.  The loser's
         compilation is discarded; the winner's entry is what everyone
         binds to. *)
      locked t (fun () ->
          match List.find_opt (fun e -> e.name = name) t.entries with
          | Some e -> (e, false)
          | None ->
              let entry = fresh_entry ~name ~sql ~query ~report ~backup in
              touch t entry;
              t.entries <- entry :: t.entries;
              enforce_capacity t;
              (entry, true))

let find_exn t name =
  match find t name with Some e -> e | None -> raise (No_such_plan name)

(* A dependency invalidates the plan when it exists but is no longer a
   valid basis for the compiled rewrites.  A dependency that was *dropped
   from the catalog entirely* also invalidates: the promise is gone.
   Hard ICs (never in the SC catalog but named as deps via FK rules) and
   exception-backed ASCs stay valid while still declared — the same
   check the guarded executor applies ({!Softdb.guard_ok}). *)
let dep_valid t dep = Softdb.guard_ok t.sdb dep

let is_valid t entry =
  (not entry.invalidated) && List.for_all (dep_valid t) entry.deps

(* Creating the cache also binds the sys.plan_cache virtual table to it,
   so the cache's state is SQL-queryable through the facade. *)
let create ?(capacity = default_capacity) sdb =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  let t =
    {
      sdb;
      capacity;
      lock = Mutex.create ();
      use_seq = 0;
      evictions = 0;
      entries = [];
    }
  in
  Softdb.set_plan_cache_source sdb (fun () ->
      let entries = locked t (fun () -> t.entries) in
      List.rev_map
        (fun e ->
          Obs.Sys_tables.plan_cache_row ~name:e.name ~sql:e.sql
            ~valid:(is_valid t e) ~dependencies:e.deps ~fast_runs:e.fast_runs
            ~backup_runs:e.backup_runs ~last_used:e.last_used)
        entries);
  t

type cache_stats = {
  entries : int;
  valid : int;
  fast_runs : int;
  backup_runs : int;
  capacity : int;
  evictions : int;
}

let stats t =
  let entries, evictions = locked t (fun () -> (t.entries, t.evictions)) in
  List.fold_left
    (fun acc e ->
      {
        acc with
        entries = acc.entries + 1;
        valid = (acc.valid + if is_valid t e then 1 else 0);
        fast_runs = acc.fast_runs + e.fast_runs;
        backup_runs = acc.backup_runs + e.backup_runs;
      })
    {
      entries = 0;
      valid = 0;
      fast_runs = 0;
      backup_runs = 0;
      capacity = t.capacity;
      evictions;
    }
    entries

(* Execute a prepared plan: the fast plan while its dependencies hold, the
   ASC-free backup once overturned (the §4.1 flag-and-revert tactic).
   Validity is checked and counters stamped under the lock; the plan
   itself runs outside it. *)
(* DDL staleness: a referenced table/index no longer exists, or a
   referenced index is no longer readable.  Distinct from SC-dependency
   invalidation — a stale plan cannot run at all. *)
let ddl_stale t entry =
  let db = Softdb.db t.sdb in
  List.exists
    (fun tbl -> Rel.Database.find_table db tbl = None)
    entry.obj_tables
  || List.exists
       (fun name ->
         match Rel.Database.find_index_by_name db name with
         | Some idx -> not (Rel.Index.is_readable idx)
         | None -> true)
       entry.obj_indexes

(* Recompile an entry from its SQL (outside the lock — compile takes
   engine-side locks of its own) and swap its compiled state in place. *)
let recompile_entry t entry =
  let _, report, backup = compile t entry.sql in
  locked t (fun () ->
      entry.report <- report;
      entry.backup <- backup;
      entry.deps <- dependencies_of report;
      let obj_tables, obj_indexes = plan_objects report backup in
      entry.obj_tables <- obj_tables;
      entry.obj_indexes <- obj_indexes;
      entry.invalidated <- false)

let execute t name =
  let entry = find_exn t name in
  (if ddl_stale t entry then begin
     (* re-prepare from the SQL (a dropped table still fails here, as it
        must — no plan can answer it) rather than run a stale plan *)
     recompile_entry t entry;
     Obs.Metrics.incr (Softdb.metrics t.sdb) "plan_cache.ddl_repreparations"
   end);
  let plan =
    locked t (fun () ->
        touch t entry;
        if is_valid t entry then begin
          entry.fast_runs <- entry.fast_runs + 1;
          entry.report.Opt.Explain.plan
        end
        else begin
          (* count the fallback once, on the valid→invalidated transition:
             re-running an already-overturned entry is not a new fallback
             event, and per-run increments would multiply-count one
             guarded statement (cf. Softdb.execute_report: one increment
             per statement, however many guards failed) *)
          if not entry.invalidated then begin
            entry.invalidated <- true;
            Softdb.note_guard_fallback t.sdb
              (List.filter (fun d -> not (dep_valid t d)) entry.deps)
          end;
          entry.backup_runs <- entry.backup_runs + 1;
          entry.backup
        end)
  in
  Exec.Executor.run (Softdb.db t.sdb) plan

(* Re-optimize every invalidated or DDL-stale entry against the current
   catalog.  An entry whose recompilation fails (e.g. its table was
   dropped) is left as is: execution surfaces the real error when the
   plan is next asked for. *)
let reprepare t =
  let entries = locked t (fun () -> t.entries) in
  List.iter
    (fun entry ->
      if
        entry.invalidated || ddl_stale t entry
        || not (List.for_all (dep_valid t) entry.deps)
      then try recompile_entry t entry with _ -> ())
    entries

let pp_entry ppf e =
  Fmt.pf ppf "%s: deps=[%a] fast=%d backup=%d%s" e.name
    Fmt.(list ~sep:(any ", ") string)
    e.deps e.fast_runs e.backup_runs
    (if e.invalidated then " INVALIDATED" else "")
