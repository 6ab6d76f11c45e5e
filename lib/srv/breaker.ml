(* Overload circuit breaker: closed → open → half-open → closed.

   The scheduler already rejects individual jobs when its queue is
   full, but under a sustained overload that still means every request
   travels the full admission path and many of the admitted ones die of
   deadline expiry in the queue — work the server pays for and then
   throws away.  The breaker watches the failure stream (admission
   rejections and queue deadline kills), and after a run of consecutive
   failures it *opens*: requests are turned away at the door with an
   honest retry_after_ms equal to the remaining cooldown, costing the
   server nothing.  After the cooldown it goes *half-open* and lets
   probes through one at a time; a run of probe successes closes it
   again, any probe failure re-opens it.

   All state lives behind one leaf-level mutex: nothing else is ever
   acquired while it is held (metrics tick after the decision), and it
   is only taken with no other lock held — see the rank table in
   {!Session}. *)

type config = {
  failure_threshold : int;  (* consecutive failures that trip it *)
  cooldown_s : float;  (* open -> half-open delay *)
  half_open_probes : int;  (* probe successes that close it *)
}

let default_config =
  { failure_threshold = 8; cooldown_s = 0.25; half_open_probes = 3 }

type state = Closed | Open of { until : float } | Half_open

(* @guarded-by srv.breaker *)
type t = {
  config : config;
  metrics : Obs.Metrics.t;
  clock : unit -> float;
  m : Mutex.t;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable probe_in_flight : bool;
  mutable probe_started : float;
  mutable probe_successes : int;
  mutable opens : int;
  mutable fast_rejects : int;
}

let create ?(config = default_config) ?(clock = Unix.gettimeofday) metrics =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be >= 1";
  if config.half_open_probes < 1 then
    invalid_arg "Breaker.create: half_open_probes must be >= 1";
  {
    config;
    metrics;
    clock;
    m = Mutex.create ();
    state = Closed;
    consecutive_failures = 0;
    probe_in_flight = false;
    probe_started = 0.0;
    probe_successes = 0;
    opens = 0;
    fast_rejects = 0;
  }

let locked t f =
  (* @acquires srv.breaker *)
  Obs.Lockdep.with_mutex "srv.breaker" t.m f

(* 0 closed / 1 open / 2 half-open, the sys.metrics gauge encoding *)
let state_code = function Closed -> 0 | Open _ -> 1 | Half_open -> 2
let state_label = function Closed -> "closed" | Open _ -> "open" | Half_open -> "half_open"

let set_state_gauge t s =
  Obs.Metrics.set_gauge t.metrics "srv.breaker.state"
    (float_of_int (state_code s))

let state_name t = locked t (fun () -> state_label t.state)
let opens t = locked t (fun () -> t.opens)
let fast_rejects t = locked t (fun () -> t.fast_rejects)

let retry_after_ms ~now ~until =
  max 1 (int_of_float (Float.ceil ((until -. now) *. 1000.0)))

(* Admission check, called with no other lock held (before the
   scheduler sees the job).  [`Proceed] admits; [`Reject ms] is the
   fast path: answer Rejected now, retry after [ms]. *)
let admit t =
  let now = t.clock () in
  let verdict =
    locked t (fun () ->
        match t.state with
        | Closed -> `Proceed
        | Open { until } when now < until ->
            t.fast_rejects <- t.fast_rejects + 1;
            `Reject (retry_after_ms ~now ~until)
        | Open _ ->
            (* cooldown over: half-open, and this request is the probe *)
            t.state <- Half_open;
            t.probe_successes <- 0;
            t.probe_in_flight <- true;
            t.probe_started <- now;
            `Probe
        | Half_open ->
            (* a probe that neither succeeded nor failed (cancelled,
               shutdown race) times out after a cooldown, so half-open
               cannot wedge *)
            if
              t.probe_in_flight
              && now -. t.probe_started < t.config.cooldown_s
            then begin
              t.fast_rejects <- t.fast_rejects + 1;
              `Reject
                (retry_after_ms ~now ~until:(now +. t.config.cooldown_s /. 4.))
            end
            else begin
              t.probe_in_flight <- true;
              t.probe_started <- now;
              `Probe
            end)
  in
  match verdict with
  | `Proceed -> `Proceed
  | `Probe ->
      set_state_gauge t Half_open;
      `Proceed
  | `Reject ms ->
      Obs.Metrics.incr t.metrics "srv.breaker.fast_rejects";
      `Reject ms

let trip t ~now =
  t.state <- Open { until = now +. t.config.cooldown_s };
  t.consecutive_failures <- 0;
  t.probe_in_flight <- false;
  t.probe_successes <- 0;
  t.opens <- t.opens + 1

(* A failure signal: the scheduler rejected an admission, or an admitted
   job died of deadline expiry in the queue. *)
let record_failure t =
  let now = t.clock () in
  let opened =
    locked t (fun () ->
        match t.state with
        | Open _ -> false
        | Half_open ->
            (* the probe failed: straight back to open *)
            trip t ~now;
            true
        | Closed ->
            t.consecutive_failures <- t.consecutive_failures + 1;
            if t.consecutive_failures >= t.config.failure_threshold then begin
              trip t ~now;
              true
            end
            else false)
  in
  Obs.Metrics.incr t.metrics "srv.breaker.failures";
  if opened then begin
    Obs.Metrics.incr t.metrics "srv.breaker.opened";
    set_state_gauge t (Open { until = now })
  end

(* A success signal: an admitted job ran to completion. *)
let record_success t =
  let closed =
    locked t (fun () ->
        match t.state with
        | Closed ->
            t.consecutive_failures <- 0;
            false
        | Open _ -> false
        | Half_open ->
            t.probe_in_flight <- false;
            t.probe_successes <- t.probe_successes + 1;
            if t.probe_successes >= t.config.half_open_probes then begin
              t.state <- Closed;
              t.consecutive_failures <- 0;
              true
            end
            else false)
  in
  if closed then begin
    Obs.Metrics.incr t.metrics "srv.breaker.closed";
    set_state_gauge t Closed
  end
