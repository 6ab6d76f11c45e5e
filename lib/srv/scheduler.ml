(* A bounded job queue feeding a pool of OCaml 5 domains.

   Admission control happens at [submit]: when the queue is at capacity
   the job is rejected immediately with a retry-after hint scaled to the
   backlog, and the srv.rejected counter ticks — the client backs off
   and retries, rather than the server growing an unbounded queue under
   pressure.  Deadlines and cancellation are checked when a worker
   dequeues the job: an expired or cancelled job never starts executing
   (once running, jobs are not interrupted — cancellation is a queue
   operation, like DB2's or Postgres's soft cancel between operators,
   only coarser).

   The scheduler knows nothing about locks or sessions: jobs do their
   own locking (see {!Rwlock} and {!Session}), so the pool stays a pure
   execution resource.  The one nod to lock contention is {!Would_block}:
   a job that cannot take its lock within a short slice raises it to
   yield its worker and return to the queue tail.  Without that, a burst
   of transactions convoys — blocked BEGINs occupy every worker while
   the lock holder's own next statement starves in the queue behind
   them.  [shutdown] stops admissions, lets workers drain the queue by
   *expiring* every remaining job (each client still gets a response),
   and joins the domains. *)

exception Would_block

type job = {
  session : int;
  req_id : int;
  enqueued_at : float;
  deadline : float option; (* absolute Unix time *)
  cancelled : unit -> bool; (* checked at dequeue *)
  run : unit -> unit;
  expired : Proto.error_code -> unit; (* called instead of [run] *)
}

(* @guarded-by srv.scheduler.queue *)
type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  capacity : int;
  workers : int;
  metrics : Obs.Metrics.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  mutable domains_seen : int list; (* raw Domain ids that ran a job *)
}

let default_workers () = max 2 (min 4 (Domain.recommended_domain_count () - 1))

(* Deadline and cancellation of the job currently running on this
   domain, stashed in domain-local storage so nested fan-out — the
   scatter runner submitting partition subtasks mid-query — inherits
   them without threading context through the executor. *)
let job_ctx_key : (float option * (unit -> bool)) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (None, fun () -> false))

let current_deadline () = fst (Domain.DLS.get job_ctx_key)
let current_cancelled () = snd (Domain.DLS.get job_ctx_key)

let locked t f =
  (* the scatter runner submits helper jobs mid-query, so this mutex can
     be taken while the submitting session's locks are held *)
  (* @acquires srv.scheduler.queue while srv.session db.rwlock *)
  Obs.Lockdep.with_mutex "srv.scheduler.queue" t.m f

let note_domain t =
  let id = (Domain.self () :> int) in
  locked t (fun () ->
      if not (List.mem id t.domains_seen) then
        t.domains_seen <- id :: t.domains_seen)

(* Back to the queue tail, skipping admission control (the job held a
   slot until a moment ago).  Deadline and cancellation get re-checked
   at the next dequeue, so a job that can never take its lock still
   expires on time. *)
let requeue t job =
  let verdict =
    locked t (fun () ->
        if t.stopping then `Drain
        else begin
          Queue.push job t.queue;
          Condition.signal t.nonempty;
          `Requeued
        end)
  in
  match verdict with
  | `Requeued ->
      Obs.Metrics.incr t.metrics "srv.jobs_requeued";
      Obs.Metrics.add_gauge t.metrics "srv.queue_depth" 1.0
  | `Drain ->
      Obs.Metrics.incr t.metrics "srv.jobs_expired";
      job.expired Proto.Shutting_down

let rec worker_loop t =
  (* @acquires srv.scheduler.queue *)
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    (* @waits srv.scheduler.queue *)
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.m
  else begin
    let job = Queue.pop t.queue in
    let stopping = t.stopping in
    Mutex.unlock t.m;
    Obs.Metrics.add_gauge t.metrics "srv.queue_depth" (-1.0);
    note_domain t;
    let now = Unix.gettimeofday () in
    (try
       if stopping then begin
         Obs.Metrics.incr t.metrics "srv.jobs_expired";
         job.expired Proto.Shutting_down
       end
       else if job.cancelled () then begin
         Obs.Metrics.incr t.metrics "srv.jobs_cancelled";
         job.expired Proto.Cancelled
       end
       else if
         match job.deadline with Some d -> now > d | None -> false
       then begin
         Obs.Metrics.incr t.metrics "srv.jobs_expired";
         (* distinct from jobs_expired (which shutdown drains also
            tick): admitted work that died of queue wait — the overload
            signal the circuit breaker and chaoscheck gate watch *)
         Obs.Metrics.incr t.metrics "srv.jobs_deadline_killed";
         job.expired Proto.Deadline_exceeded
       end
       else begin
         Domain.DLS.set job_ctx_key (job.deadline, job.cancelled);
         match
           Fun.protect
             ~finally:(fun () ->
               Domain.DLS.set job_ctx_key (None, fun () -> false))
             job.run
         with
         | () ->
             Obs.Metrics.record_time t.metrics "srv.queue_wait"
               (now -. job.enqueued_at);
             Obs.Metrics.record_time t.metrics "srv.query_latency"
               (Unix.gettimeofday () -. now);
             Obs.Metrics.incr t.metrics "srv.jobs_completed"
         | exception Would_block -> requeue t job
       end
     with _ ->
       (* [run]/[expired] answer the client themselves; a leak here must
          not kill the worker *)
       Obs.Metrics.incr t.metrics "srv.job_errors");
    worker_loop t
  end

let create ?workers ?(queue_capacity = 64) metrics =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  if queue_capacity < 1 then
    invalid_arg "Scheduler.create: queue_capacity must be >= 1";
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      capacity = queue_capacity;
      workers;
      metrics;
      stopping = false;
      domains = [];
      domains_seen = [];
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let workers t = t.workers
let queue_depth t = locked t (fun () -> Queue.length t.queue)
let domains_used t = locked t (fun () -> List.length t.domains_seen)

(* The retry-after hint: proportional to the backlog a retrying client
   would find in front of it, amortized over the pool — deterministic
   given the queue state, so tests can pin it. *)
let retry_after_ms t = max 1 (Queue.length t.queue * 5 / t.workers)

let submit t job =
  let verdict =
    locked t (fun () ->
        if t.stopping then `Shutting_down
        else if Queue.length t.queue >= t.capacity then
          `Rejected (retry_after_ms t)
        else begin
          Queue.push job t.queue;
          Condition.signal t.nonempty;
          `Admitted
        end)
  in
  (match verdict with
  | `Admitted ->
      Obs.Metrics.incr t.metrics "srv.jobs_admitted";
      Obs.Metrics.add_gauge t.metrics "srv.queue_depth" 1.0
  | `Rejected _ -> Obs.Metrics.incr t.metrics "srv.jobs_rejected"
  | `Shutting_down -> ());
  verdict

(* Enqueue pool-assisted work the server generates for itself — scatter
   helper jobs fanning a query's partition subtasks across the pool.
   Admission control is deliberately skipped: the submitting query
   already passed it and is occupying a worker; bouncing its subtasks
   would deadlock progress against the very backlog the query is part
   of.  [false] when the pool is shutting down — the submitter then
   runs every subtask itself. *)
let submit_internal t job =
  let admitted =
    locked t (fun () ->
        if t.stopping then false
        else begin
          Queue.push job t.queue;
          Condition.signal t.nonempty;
          true
        end)
  in
  if admitted then begin
    Obs.Metrics.incr t.metrics "srv.scatter_helpers";
    Obs.Metrics.add_gauge t.metrics "srv.queue_depth" 1.0
  end;
  admitted

let shutdown t =
  let domains =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join domains
