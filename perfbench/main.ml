(* perfbench: the served-traffic benchmark.

     perfbench --workload oltp-point|scan-analytics|mixed-drift
               --seed N --seconds S --trace 0|1

   Loads the purchase table from the seed, installs the ship_3w soft
   constraint with its late_shipments exception table, and serves it over
   TCP from an in-process Srv.Server with its default worker count.  A
   forked load-generating process drives it as a closed loop, one thread
   per connection.  One server serves the whole run; the S measured
   seconds are split into segments of about three seconds, each with
   fresh sessions after half a second of warm-up, and throughput, latency
   and heap figures are medians over segments.  Afterwards the load
   generator checks every distinct read's first served rows against
   Core.Softdb.query_baseline on a copy it loads from the same seed, and
   mixed-drift's WAL is recovered and checked against the live state.
   With --trace 1 the same seeded stream is also replayed in one thread
   with a span around each layer's public call (Replay).

   Prints every metric by name and unit; the last stdout line is the JSON
   summary.  Exits 1 if an answer or the recovered state is wrong, 2 on
   bad arguments.  Scratch files (WALs, span dumps) go to
   .perfbench-run/<pid>/ in the working directory, so runs never share a
   file; the WALs are removed on every way out.  README.md holds the
   rationale. *)

let out_dir = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ()))
let wal_path copy = Filename.concat out_dir (Printf.sprintf "wal-%d.log" copy)

let remove_wals () =
  List.iter
    (fun copy ->
      let path = wal_path copy in
      if Sys.file_exists path then Sys.remove path)
    [ 0; 1; 2 ];
  (* the directory stays only when it holds a span dump *)
  try Sys.rmdir out_dir with Sys_error _ -> ()

let warmup_s = 0.5
let segment_s = 3.0
let ping_count = 500

let s_of_ns ns = Int64.to_float ns /. 1e9
let since t0 = s_of_ns (Int64.sub (Perfbench.Trace.now_ns ()) t0)

let timed f =
  let t0 = Perfbench.Trace.now_ns () in
  let v = f () in
  (v, since t0)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 1) fmt

module Gen = Perfbench.Gen
module Client = Perfbench.Client
module Pstats = Perfbench.Pstats
module Trace = Perfbench.Trace
module Replay = Perfbench.Replay

let get = function Some v -> v | None -> 0.0
let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let median_over xs = get (Pstats.median (Array.of_list xs))

(* ---- set-up --------------------------------------------------------------------- *)

type setup = {
  sdb : Core.Softdb.t;
  wal : (Core.Recovery.t * string) option;
  wal_bytes : int;  (** log size once the checkpoint is written *)
  load_s : float;
  runstats_s : float;
  sc_install_s : float;
  total_s : float;
}

(* Load, RUNSTATS, install ship_3w + late_shipments, and for mixed-drift
   attach a file WAL and checkpoint the loaded state into it. *)
let setup workload ~seed ~copy =
  let sp = Gen.spec workload in
  let t0 = Trace.now_ns () in
  let sdb = Core.Softdb.create () in
  let (), load_s =
    timed (fun () ->
        Workload.Purchase.load
          ~config:{ Workload.Purchase.default_config with rows = sp.Gen.rows; seed }
          (Core.Softdb.db sdb))
  in
  let (), runstats_s = timed (fun () -> Core.Softdb.runstats sdb) in
  let (), sc_install_s =
    timed (fun () ->
        ignore (Core.Softdb.exec sdb Gen.ship_3w_ddl);
        ignore (Core.Softdb.exec sdb Gen.late_shipments_ddl))
  in
  if
    Core.Sc_catalog.exception_table_for (Core.Softdb.catalog sdb) "ship_3w"
    <> Some "late_shipments"
  then die "ship_3w was not installed with its exception table";
  let wal =
    if not sp.Gen.wal then None
    else begin
      let path = wal_path copy in
      if Sys.file_exists path then Sys.remove path;
      let link = Core.Recovery.attach sdb (Rel.Wal.open_file path) in
      Core.Recovery.checkpoint link;
      Some (link, path)
    end
  in
  let total_s = since t0 in
  let wal_bytes =
    match wal with Some (_, path) -> (Unix.stat path).Unix.st_size | None -> 0
  in
  { sdb; wal; wal_bytes; load_s; runstats_s; sc_install_s; total_s }

(* Stop logging a copy that is done with and drop its log file. *)
let release s =
  Option.iter
    (fun (link, path) ->
      Core.Recovery.detach link;
      Sys.remove path)
    s.wal

(* ---- correctness ------------------------------------------------------------------- *)

let value_close a b =
  match (a, b) with
  | Rel.Value.Float x, Rel.Value.Float y ->
      x = y || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  | _ -> a = b

(* Multiset equality; float columns (SUMs) may differ in the last bits
   when two plans add in another order. *)
let same_multiset (a : Rel.Tuple.t list) (b : Rel.Tuple.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> Array.length x = Array.length y && Array.for_all2 value_close x y)
       (List.sort Rel.Tuple.compare a)
       (List.sort Rel.Tuple.compare b)

(* Every distinct read's first served answer against query_baseline on
   [reference].  Returns (distinct reads checked, mismatched). *)
let check_answers answers reference =
  let bad =
    Hashtbl.fold
      (fun sql (a : Client.answer) bad ->
        let expected = Core.Softdb.query_baseline reference sql in
        if same_multiset a.Client.rows expected.Exec.Executor.rows then bad else sql :: bad)
      answers []
  in
  List.iter (fun sql -> Printf.eprintf "perfbench: wrong answer for %s\n" sql) bad;
  (Hashtbl.length answers, List.length bad)

let table_rows sdb name =
  (Core.Softdb.query_baseline sdb ("SELECT * FROM " ^ name)).Exec.Executor.rows

(* The recovered state must hold every acknowledged commit and equal the
   live server's purchase and late_shipments tables. *)
let check_recovery (sums : Client.summary list) ~live ~recovered =
  let ids = Hashtbl.create 32768 in
  List.iter
    (fun row -> match row.(0) with Rel.Value.Int id -> Hashtbl.replace ids id () | _ -> ())
    (table_rows recovered "purchase");
  let lost =
    List.fold_left
      (fun n (s : Client.summary) ->
        n
        + List.length (List.filter (fun id -> not (Hashtbl.mem ids id)) s.Client.live_ids)
        + List.length (List.filter (Hashtbl.mem ids) s.Client.deleted_ids))
      0 sums
  in
  let same name = same_multiset (table_rows live name) (table_rows recovered name) in
  let purchase_ok = same "purchase" and late_ok = same "late_shipments" in
  if lost > 0 then Printf.eprintf "perfbench: recovery lost %d acknowledged ids\n" lost;
  if not purchase_ok then prerr_endline "perfbench: recovered purchase differs";
  if not late_ok then prerr_endline "perfbench: recovered late_shipments differs";
  lost = 0 && purchase_ok && late_ok

(* ---- the load generator ------------------------------------------------------------ *)

let receive fd ~timeout_s =
  match Unix.select [ fd ] [] [] (Float.max 0.0 timeout_s) with
  | [], _, _ -> None
  | _ -> ( try Some (Marshal.from_channel (Unix.in_channel_of_descr fd)) with End_of_file -> None)

let send oc v =
  Marshal.to_channel oc v [];
  flush oc

type command =
  | Segment of { port : int; segment : int; ping : bool }
  | Check  (** load the reference copy and check every distinct answer *)
  | Quit

type setup_times = { load_s : float; runstats_s : float; sc_install_s : float; total_s : float }

let times (s : setup) =
  { load_s = s.load_s; runstats_s = s.runstats_s; sc_install_s = s.sc_install_s; total_s = s.total_s }

(* The load-generating process, forked before anything else: OCaml 5
   cannot fork once a domain has existed, and keeping the clients in
   their own process keeps their threads and bookkeeping out of the
   served process.  For each [Segment] it drives the given port with
   Client.run and answers with the window and a Client.summary; the
   first served answer of every distinct read stays here until [Check]
   compares them all with query_baseline on a copy it loads itself. *)
type loadgen = {
  pid : int;
  cmd : out_channel;
  ctl : Unix.file_descr;  (** window (start_ns, stop_ns) of each segment *)
  res : Unix.file_descr;  (** summaries and the check verdict *)
  mutable running : bool;
}

let stop_loadgen lg ~kill =
  if lg.running then begin
    lg.running <- false;
    if kill then Unix.kill lg.pid Sys.sigkill
    else (try send lg.cmd Quit with Sys_error _ -> ());
    match Unix.waitpid [] lg.pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> if not kill then die "load generator failed"
  end

let loadgen_main workload ~seed ~segment_seconds cmd ctl res =
  let answers = Hashtbl.create 4096 in
  let rec loop () =
    match (Marshal.from_channel cmd : command) with
    | Quit | (exception End_of_file) -> 0
    | Segment { port; segment; ping } ->
        send res
          (Client.run workload ~seed ~port
             ~conn_base:(segment * (Gen.spec workload).Gen.conns)
             ~warmup_s ~seconds:segment_seconds
             ~pings:(if ping then ping_count else 0)
             ~answers
             ~on_window:(fun a b -> send ctl ((a, b) : int64 * int64)));
        loop ()
    | Check ->
        let b = setup workload ~seed ~copy:1 in
        let verdict = check_answers answers b.sdb in
        release b;
        send res (verdict, times b);
        loop ()
  in
  try loop ()
  with e ->
    prerr_endline ("perfbench: load generator: " ^ Printexc.to_string e);
    3

let spawn_loadgen workload ~seed ~segment_seconds =
  let cmd_r, cmd_w = Unix.pipe () in
  let ctl_r, ctl_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      List.iter Unix.close [ cmd_w; ctl_r; res_r ];
      let code =
        loadgen_main workload ~seed ~segment_seconds (Unix.in_channel_of_descr cmd_r)
          (Unix.out_channel_of_descr ctl_w) (Unix.out_channel_of_descr res_w)
      in
      (* no at_exit: the parent's buffers are not ours to flush *)
      Unix._exit code
  | pid ->
      List.iter Unix.close [ cmd_r; ctl_w; res_w ];
      let lg =
        { pid; cmd = Unix.out_channel_of_descr cmd_w; ctl = ctl_r; res = res_r; running = true }
      in
      at_exit (fun () -> stop_loadgen lg ~kill:true);
      lg

let await lg what ~timeout_s =
  match receive lg ~timeout_s with
  | Some v -> v
  | None -> die "load generator %s" what

(* ---- a served segment ----------------------------------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  timings : (string * int * float) list;
  evictions : int;
}

let counter_names =
  [ "srv.jobs_completed"; "srv.jobs_requeued"; "exec.rows_scanned";
    "exec.pages_read"; "queries.executed"; "sc_guard_fallbacks" ]

let snapshot server =
  let m = Core.Softdb.metrics (Srv.Server.softdb server) in
  {
    counters = List.map (fun n -> (n, Obs.Metrics.counter m n)) counter_names;
    timings = Obs.Metrics.timings m;
    evictions =
      (Core.Plan_cache.stats (Srv.Server.plan_cache server)).Core.Plan_cache.evictions;
  }

let delta_counter a b name = List.assoc name b.counters - List.assoc name a.counters

let delta_timing a b name =
  let find s =
    match List.find_opt (fun (n, _, _) -> n = name) s.timings with
    | Some (_, calls, total) -> (calls, total)
    | None -> (0, 0.0)
  in
  let c0, t0 = find a and c1, t1 = find b in
  (c1 - c0, t1 -. t0)

type served = {
  sum : Client.summary;
  window_s : float;
  before : snapshot;
  after : snapshot;
  heap_peak_words : float;
      (** p95 of the major heap size, sampled every 20 ms: the peak
          without the single largest samples, which depend on where a
          major GC cycle happened to stand *)
}

(* Serve one segment: fresh sessions on [server], driven by the load
   generator.  Connections are accepted here one by one: a thread blocked
   in accept() is not woken when its listener closes, so
   Srv.Server.listen_tcp's accept loop could not be joined. *)
let serve lg workload server ~segment ~ping =
  let listener = Srv.Transport.listen ~port:0 () in
  send lg.cmd (Segment { port = Srv.Transport.port listener; segment; ping });
  let readers =
    Array.init (Gen.spec workload).Gen.conns (fun _ ->
        Srv.Server.serve_connection_async server (Srv.Transport.accept listener))
  in
  Srv.Transport.close_listener listener;
  let start_ns, stop_ns = (await lg.ctl "did not start" ~timeout_s:60.0 : int64 * int64) in
  let d = s_of_ns (Int64.sub start_ns (Trace.now_ns ())) in
  if d > 0.0 then Thread.delay d;
  let before = snapshot server in
  let heap = ref [] in
  while Int64.compare (Trace.now_ns ()) stop_ns < 0 do
    heap := float_of_int (Gc.quick_stat ()).Gc.heap_words :: !heap;
    Thread.delay 0.02
  done;
  let sum = (await lg.res "did not finish" ~timeout_s:60.0 : Client.summary) in
  let after = snapshot server in
  Array.iter Thread.join readers;
  {
    sum;
    window_s = s_of_ns (Int64.sub stop_ns start_ns);
    before;
    after;
    heap_peak_words = get (Pstats.quantile (Array.of_list !heap) 0.95);
  }

let lat kinds (s : Client.summary) =
  Array.concat (List.map (fun k -> List.assoc k s.Client.lat) kinds)

let pooled segs kinds = Array.concat (List.map (fun sv -> lat kinds sv.sum) segs)

(* ---- the traced replay --------------------------------------------------------------- *)

type replayed = {
  spans : Trace.span array;
  self : float array;
  counts : Replay.counts;  (** traced passes *)
  plain : Replay.counts;  (** untraced passes *)
  overhead : float;
  ops : int;
}

(* Untraced, traced, untraced, traced over the same prefix of every
   connection's stream; the first pass stops after [budget_s] and fixes
   the prefix length for the rest. *)
let replay workload sdb ~seed ~served_ops ~budget_s =
  let sp = Gen.spec workload in
  let prepared_sql = Gen.prepared_sql ~seed ~rows:sp.Gen.rows in
  let r = Replay.create sdb ~conns:sp.Gen.conns ~prepared:sp.Gen.prepared ~prepared_sql in
  let ops_of_pass pass =
    let streams = Array.init sp.Gen.conns (fun conn -> Gen.stream workload ~seed ~pass ~conn) in
    let per = Array.map (fun s -> Array.init served_ops.(s.Gen.conn) (fun _ -> Gen.next s)) streams in
    let longest = Array.fold_left (fun m a -> max m (Array.length a)) 0 per in
    List.concat
      (List.init longest (fun i ->
           List.filter_map
             (fun conn -> if i < Array.length per.(conn) then Some (conn, per.(conn).(i)) else None)
             (List.init sp.Gen.conns Fun.id)))
  in
  let traced = Trace.create ~enabled:true () and untraced = Trace.create ~enabled:false () in
  let counts = Replay.new_counts () and plain = Replay.new_counts () in
  let path = [| 0L; 0L |] in
  let n = ref max_int in
  List.iteri
    (fun pass tracing ->
      let ops = List.filteri (fun i _ -> i < !n) (ops_of_pass pass) in
      let tr, c = if tracing then (traced, counts) else (untraced, plain) in
      let ns, done_ =
        Replay.run r tr c ~first_req:(pass * 10_000_000) ~budget_ns:(if pass = 0 then Some (Int64.of_float (budget_s *. 1e9)) else None) ops
      in
      if pass = 0 then n := done_;
      let k = if tracing then 1 else 0 in
      path.(k) <- Int64.add path.(k) ns)
    [ false; true; false; true ];
  let spans = Trace.spans traced in
  {
    spans;
    self = Trace.self_times spans;
    counts;
    plain;
    overhead = (Int64.to_float path.(1) -. Int64.to_float path.(0)) /. Int64.to_float path.(0);
    ops = !n;
  }

(* ---- metrics ---------------------------------------------------------------------------- *)

let end_to_end =
  [ ("throughput_rps", "1/s"); ("read_p50_ms", "ms"); ("read_p95_ms", "ms");
    ("success_ratio", "ratio"); ("setup_s", "s"); ("rows_scanned_per_req", "rows");
    ("pages_read_per_req", "pages"); ("heap_peak_mb", "MB") ]

let per_layer =
  [ ("srv.ping_rtt_us", "us"); ("srv.outside_engine_us_per_req", "us");
    ("srv.outside_engine_us_per_req.point", "us");
    ("srv.outside_engine_us_per_req.prepared", "us");
    ("srv.outside_engine_us_per_req.ship_eq", "us");
    ("srv.outside_engine_us_per_req.txn", "us");
    ("srv.queue_wait_us_per_job", "us"); ("srv.job_us_per_job", "us");
    ("srv.requeues_per_1k_jobs", "count"); ("srv.decode_us_per_req", "us");
    ("srv.encode_us_per_req", "us"); ("srv.encode_ns_per_row", "ns");
    ("sqlfe.parse_us_per_stmt", "us"); ("opt.optimize_us_per_query", "us");
    ("opt.rewrite_us_per_query", "us"); ("opt.plan_us_per_query", "us");
    ("opt.rewrites_per_query", "count"); ("opt.q_error_geomean", "ratio");
    ("exec.execute_us_per_query", "us"); ("exec.ns_per_row_scanned", "ns");
    ("exec.rows_scanned_per_row_returned", "ratio");
    ("exec.alloc_words_per_row_scanned", "words");
    ("core.plan_cache_evictions_per_1k_exec", "count");
    ("core.guard_fallbacks", "count"); ("core.insert_us_per_row", "us");
    ("core.commit_us_per_txn", "us"); ("core.exception_rows", "rows");
    ("core.replay_us_per_record", "us"); ("core.sc_install_ms", "ms");
    ("rel.wal_bytes_per_txn", "bytes"); ("rel.wal_bytes_per_user_byte", "ratio");
    ("rel.load_ms", "ms"); ("stats.runstats_ms", "ms"); ("txn_p50_ms", "ms");
    ("txn_p95_ms", "ms"); ("recovery_s", "s"); ("trace.overhead_ratio", "ratio") ]

let read_kinds = List.filter (fun k -> k <> Gen.Txn) Gen.kinds

(* Per-name (calls, total self ns) over the traced spans. *)
let span_totals (r : replayed) =
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i (s : Trace.span) ->
      let calls, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.Trace.name) in
      Hashtbl.replace tbl s.Trace.name (calls + 1, total +. r.self.(i)))
    r.spans;
  tbl

let layer_metrics ~segs ~(r : replayed) ~setups_done ~recovery ~exception_rows =
  let tot = span_totals r in
  let calls name = float_of_int (fst (Option.value ~default:(0, 0.0) (Hashtbl.find_opt tot name))) in
  let ns name = snd (Option.value ~default:(0, 0.0) (Hashtbl.find_opt tot name)) in
  let us_per name = ratio (ns name) (calls name) /. 1e3 in
  let sum names = List.fold_left (fun a n -> a +. ns n) 0.0 names in
  let ncalls names = List.fold_left (fun a n -> a +. calls n) 0.0 names in
  (* engine time of one operation: its root span minus the root's self
     time, i.e. the union of the layer calls inside it *)
  let engine_ns kinds =
    let roots = List.map (fun k -> "req." ^ Gen.kind_name k) kinds in
    let xs = ref [] in
    Array.iteri
      (fun i (s : Trace.span) ->
        if s.Trace.parent < 0 && List.mem s.Trace.name roots then
          xs := (Trace.duration_ns s -. r.self.(i)) :: !xs)
      r.spans;
    Pstats.mean (Array.of_list !xs)
  in
  let outside kinds =
    match (Pstats.mean (pooled segs kinds), engine_ns kinds) with
    | Some s, Some e -> (s -. e) /. 1e3
    | _ -> 0.0
  in
  let total f = List.fold_left (fun a sv -> a +. f sv) 0.0 segs in
  let d name = total (fun sv -> float_of_int (delta_counter sv.before sv.after name)) in
  let timing name =
    ( total (fun sv -> float_of_int (fst (delta_timing sv.before sv.after name))),
      total (fun sv -> snd (delta_timing sv.before sv.after name)) )
  in
  let qw_calls, qw_total = timing "srv.queue_wait" in
  let job_calls, job_total = timing "srv.query_latency" in
  let execs = float_of_int (Array.length (pooled segs [ Gen.Prepared ])) in
  let evictions = total (fun sv -> float_of_int (sv.after.evictions - sv.before.evictions)) in
  let txn = pooled segs [ Gen.Txn ] in
  let ms q = match Pstats.percentile txn q with Some v -> v /. 1e6 | None -> 0.0 in
  let txn_p50 = match Pstats.median txn with Some v -> v /. 1e6 | None -> 0.0 in
  let c = r.counts in
  let commits = total (fun sv -> float_of_int sv.sum.Client.commits) in
  let user_bytes = total (fun sv -> float_of_int sv.sum.Client.user_bytes) in
  let recovery_s, per_record, wal_bytes =
    match recovery with Some (s, us, b) -> (s, us, b) | None -> (0.0, 0.0, 0.0)
  in
  let ping_ns = Array.concat (List.map (fun sv -> sv.sum.Client.ping_ns) segs) in
  let exec_names = [ "exec.execute"; "core.plan_cache.execute" ] in
  [
    ("srv.ping_rtt_us", get (Pstats.median ping_ns) /. 1e3);
    ("srv.outside_engine_us_per_req", outside Gen.kinds);
    ("srv.outside_engine_us_per_req.point", outside [ Gen.Point ]);
    ("srv.outside_engine_us_per_req.prepared", outside [ Gen.Prepared ]);
    ("srv.outside_engine_us_per_req.ship_eq", outside [ Gen.Ship_eq ]);
    ("srv.outside_engine_us_per_req.txn", outside [ Gen.Txn ]);
    ("srv.queue_wait_us_per_job", ratio qw_total qw_calls *. 1e6);
    ("srv.job_us_per_job", ratio job_total job_calls *. 1e6);
    ("srv.requeues_per_1k_jobs", ratio (d "srv.jobs_requeued") (d "srv.jobs_completed") *. 1e3);
    ("srv.decode_us_per_req", us_per "srv.decode");
    ("srv.encode_us_per_req", us_per "srv.encode");
    ("srv.encode_ns_per_row", ratio (ns "srv.encode") (float_of_int c.Replay.rows_encoded));
    ("sqlfe.parse_us_per_stmt", us_per "sqlfe.parse");
    ("opt.optimize_us_per_query", us_per "opt.optimize");
    ("opt.rewrite_us_per_query", us_per "opt.rewrite");
    ("opt.plan_us_per_query", us_per "opt.plan");
    ("opt.rewrites_per_query", ratio (float_of_int c.Replay.rewrites) (float_of_int c.Replay.reads));
    ("opt.q_error_geomean", get (Pstats.geomean (Array.of_list c.Replay.q_errors)));
    ("exec.execute_us_per_query", ratio (sum exec_names) (ncalls exec_names) /. 1e3);
    ("exec.ns_per_row_scanned", ratio (sum exec_names) (float_of_int c.Replay.rows_scanned));
    ( "exec.rows_scanned_per_row_returned",
      ratio (float_of_int c.Replay.rows_scanned) (float_of_int c.Replay.rows_returned) );
    ( "exec.alloc_words_per_row_scanned",
      ratio r.plain.Replay.alloc_words (float_of_int r.plain.Replay.rows_scanned) );
    ("core.plan_cache_evictions_per_1k_exec", ratio evictions execs *. 1e3);
    ( "core.guard_fallbacks",
      float_of_int (List.assoc "sc_guard_fallbacks" (List.nth segs (List.length segs - 1)).after.counters) );
    ( "core.insert_us_per_row",
      ratio (ns "core.exec_statement.insert") (float_of_int c.Replay.rows_inserted) /. 1e3 );
    ("core.commit_us_per_txn", us_per "core.txn.commit");
    ("core.exception_rows", float_of_int exception_rows);
    ("core.replay_us_per_record", per_record);
    ("core.sc_install_ms", median_over (List.map (fun s -> s.sc_install_s) setups_done) *. 1e3);
    ("rel.wal_bytes_per_txn", ratio wal_bytes commits);
    ("rel.wal_bytes_per_user_byte", ratio wal_bytes user_bytes);
    ("rel.load_ms", median_over (List.map (fun s -> s.load_s) setups_done) *. 1e3);
    ("stats.runstats_ms", median_over (List.map (fun s -> s.runstats_s) setups_done) *. 1e3);
    ("txn_p50_ms", txn_p50);
    ("txn_p95_ms", ms 0.95);
    ("recovery_s", recovery_s);
    ("trace.overhead_ratio", r.overhead);
  ]

let print_spans (r : replayed) =
  let tot = span_totals r in
  let rows = Hashtbl.fold (fun name (calls, ns) acc -> (name, calls, ns) :: acc) tot [] in
  Printf.printf "%-32s %10s %14s\n" "span" "calls" "self us/call";
  List.iter
    (fun (name, calls, ns) ->
      Printf.printf "%-32s %10d %14.3f\n" name calls (ns /. float_of_int calls /. 1e3))
    (List.sort compare rows)

(* ---- output ---------------------------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics units =
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-42s %16.6f %s\n" name (List.assoc name metrics) unit)
    units;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_float (List.assoc name metrics))
              unit)
          units))

(* ---- main ---------------------------------------------------------------------------------- *)

let run workload ~seed ~seconds ~trace =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname out_dir; out_dir ];
  (* registered before the load generator's handler, so it runs after it:
     at_exit handlers run newest first *)
  at_exit remove_wals;
  (* a peer that closed its socket or pipe is an EPIPE error where it is
     written to (a dropped connection, or a dead load generator), not a
     silent kill of the whole run; the load generator inherits this *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = max 1 (int_of_float (Float.round (seconds /. segment_s))) in
  let lg = spawn_loadgen workload ~seed ~segment_seconds:(seconds /. float_of_int n) in
  let a = setup workload ~seed ~copy:0 in
  let a_times = times a in
  (* set-up's garbage is collected before serving starts, not during it *)
  Gc.full_major ();
  let server = Srv.Server.create a.sdb in
  let segs =
    List.init n (fun segment -> serve lg workload server ~segment ~ping:(trace && segment = n - 1))
  in
  Srv.Server.shutdown server;
  let sums = List.map (fun sv -> sv.sum) segs in
  let exception_rows = List.length (table_rows a.sdb "late_shipments") in
  (* mixed-drift: flush the log, rebuild the state from it, compare *)
  let recovery, recovery_ok =
    match a.wal with
    | None -> (None, true)
    | Some (link, path) ->
        Core.Recovery.detach link;
        let wal_bytes = float_of_int ((Unix.stat path).Unix.st_size - a.wal_bytes) in
        (* Core.Recovery.recover_file replays with Core.Recovery.recover,
           which rebuilds the committed-transaction set once per record
           (quadratic in log length: ~16 s for a 35k-record log), so a
           full run's log could not be recovered within the run limit.
           The sharded replayer builds that set once and recovers the
           same state from the same scan. *)
        let (recovered, report), secs =
          timed (fun () -> Core.Recovery.recover_sharded_scan (snd (Rel.Wal.scan_file path)))
        in
        let ok = check_recovery sums ~live:a.sdb ~recovered in
        let applied = float_of_int report.Core.Recovery.applied_records in
        Sys.remove path;
        (Some (secs, ratio secs applied *. 1e6, wal_bytes), ok)
  in
  send lg.cmd Check;
  let (distinct, wrong), b = (await lg.res "did not check" ~timeout_s:120.0 : (int * int) * setup_times) in
  stop_loadgen lg ~kill:false;
  (* the served copy is not used past this point: a full collection here
     keeps this set-up from paying the major GC's marking of it, which the
     first set-up did not pay either *)
  Gc.full_major ();
  let c = setup workload ~seed ~copy:2 in
  let replayed =
    if not trace then None
    else
      Some
        (replay workload c.sdb ~seed ~served_ops:(List.hd sums).Client.ops
           ~budget_s:(seconds /. 8.0))
  in
  release c;
  let setups_done = [ a_times; b; times c ] in
  let replay_failures =
    match replayed with
    | Some r -> r.counts.Replay.failures + r.plain.Replay.failures
    | None -> 0
  in
  let acct = Client.new_acct () in
  List.iter (fun (s : Client.summary) -> Client.merge_acct acct s.Client.acct) sums;
  let failed = acct.Client.failed + wrong in
  let correct = failed = 0 && recovery_ok && replay_failures = 0 in
  Printf.printf
    "%s seed %d: %d ops attempted, %d failed (%d refused, %d errored, %d \
     deadline, %d dropped, %d wrong row counts); %d distinct reads checked \
     against query_baseline, %d wrong; recovery %s; replay failures %d\n"
    (Gen.name workload) seed acct.Client.attempted failed acct.Client.refused
    acct.Client.errored acct.Client.deadline acct.Client.dropped acct.Client.wrong
    distinct wrong
    (match recovery with None -> "n/a" | Some _ -> if recovery_ok then "ok" else "WRONG")
    replay_failures;
  List.iter (Printf.eprintf "perfbench: server error: %s\n") acct.Client.messages;
  List.iter
    (fun k ->
      let l = pooled segs [ k ] in
      if Array.length l > 0 then
        Printf.printf "%-12s %8d ops  p50 %9.3f ms  mean %9.3f ms\n" (Gen.kind_name k)
          (Array.length l)
          (get (Pstats.median l) /. 1e6)
          (get (Pstats.mean l) /. 1e6))
    Gen.kinds;
  let reads = List.map (fun sv -> lat read_kinds sv.sum) segs in
  (* p95 per segment when every segment holds enough reads for one,
     otherwise over all segments together *)
  let read_p95 =
    let per = List.map (fun r -> Pstats.percentile r 0.95) reads in
    if List.for_all Option.is_some per then median_over (List.map get per)
    else
      let all = Array.concat reads in
      match Pstats.percentile all 0.95 with
      | Some v -> v
      | None -> die "only %d reads: too few for a p95" (Array.length all)
  in
  let rps = List.map (fun sv -> float_of_int sv.sum.Client.requests /. sv.window_s) segs in
  let row name xs = Printf.printf "%-22s%s\n" name (String.concat "" (List.map (Printf.sprintf " %9.3f") xs)) in
  row "segment rps" rps;
  row "segment read p50 ms" (List.map (fun r -> get (Pstats.median r) /. 1e6) reads);
  row "segment read p95 ms" (List.map (fun r -> get (Pstats.percentile r 0.95) /. 1e6) reads);
  row "segment heap MB" (List.map (fun sv -> mb sv.heap_peak_words) segs);
  let total name = List.fold_left (fun a sv -> a + delta_counter sv.before sv.after name) 0 segs in
  let queries = float_of_int (total "queries.executed") in
  let e2e =
    [
      ("throughput_rps", median_over rps);
      ("read_p50_ms", median_over (List.map (fun r -> get (Pstats.median r)) reads) /. 1e6);
      ("read_p95_ms", read_p95 /. 1e6);
      ( "success_ratio",
        1.0 -. ratio (float_of_int failed) (float_of_int acct.Client.attempted) );
      ("setup_s", median_over (List.map (fun s -> s.total_s) setups_done));
      ("rows_scanned_per_req", ratio (float_of_int (total "exec.rows_scanned")) queries);
      ("pages_read_per_req", ratio (float_of_int (total "exec.pages_read")) queries);
      ("heap_peak_mb", mb (median_over (List.map (fun sv -> sv.heap_peak_words) segs)));
    ]
  in
  let metrics, units =
    match replayed with
    | None -> (e2e, end_to_end)
    | Some r ->
        let path =
          Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.tsv" (Gen.name workload) seed)
        in
        Trace.write_tsv path r.spans;
        print_spans r;
        Printf.printf "replayed %d operations per pass; spans in %s\n" r.ops path;
        (e2e @ layer_metrics ~segs ~r ~setups_done ~recovery ~exception_rows, per_layer)
  in
  print_result ~correct ~attempted:acct.Client.attempted ~failed metrics units;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME oltp-point, scan-analytics or mixed-drift");
      ("--seed", Arg.Set_int seed, "N seed for the data and the request streams");
      ("--seconds", Arg.Set_int seconds, "S measured seconds of served traffic");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  match Gen.of_name !workload with
  | None -> bad ("unknown workload " ^ !workload)
  | Some w ->
      if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then bad "bad arguments";
      run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
