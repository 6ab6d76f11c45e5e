(* The multi-session server: transports in, scheduler out.

   One server wraps one shared Softdb.t with

   - a {!Scheduler}: bounded queue + domain worker pool (admission
     control, deadlines, cancellation);
   - a {!Rwlock}: the single-writer rule;
   - a shared {!Core.Plan_cache} (LRU-bounded), so prepared plans cross
     sessions;
   - a session registry surfaced as the sys.sessions virtual table —
     a server can be asked about itself over its own wire protocol.

   Each connection gets a reader loop (a lightweight systhread — the
   CPU-heavy work happens on the scheduler's domains): it decodes
   frames, answers Hello/Ping/Cancel/Quit inline, and turns everything
   else into a scheduler job whose completion sends the response from
   whichever domain ran it.  Responses therefore interleave freely on
   the wire; the correlation id orders them for the client. *)

(* @guarded-by none: owned by the connection's reader loop thread *)
type conn_state = {
  conn : Transport.t;
  session : Session.t;
  mutable open_ : bool;
}

(* @guarded-by srv.server.registry *)
type t = {
  sdb : Core.Softdb.t;
  scheduler : Scheduler.t;
  rwlock : Rwlock.t;
  cache : Core.Plan_cache.t;
  metrics : Obs.Metrics.t;
  breaker : Breaker.t;
  default_deadline_ms : int;
  m : Mutex.t;
  mutable sessions : Session.t list; (* newest first, closed ones kept *)
  mutable next_session : int;
  mutable shutting_down : bool;
  mutable listener : Transport.listener option;
}

let locked t f =
  (* held during query execution too: the sys.sessions generator runs
     under the executing session's locks *)
  (* @acquires srv.server.registry while srv.session db.rwlock *)
  Obs.Lockdep.with_mutex "srv.server.registry" t.m f

let create ?workers ?(queue_capacity = 64) ?plan_cache_capacity
    ?(default_deadline_ms = 10_000) ?breaker_config sdb =
  let metrics = Core.Softdb.metrics sdb in
  let t =
    {
      sdb;
      scheduler = Scheduler.create ?workers ~queue_capacity metrics;
      rwlock = Rwlock.create ();
      cache = Core.Plan_cache.create ?capacity:plan_cache_capacity sdb;
      metrics;
      breaker = Breaker.create ?config:breaker_config metrics;
      default_deadline_ms;
      m = Mutex.create ();
      sessions = [];
      next_session = 0;
      shutting_down = false;
      listener = None;
    }
  in
  (* sys.sessions: the registry as a SQL view.  The generator runs during
     query execution on a worker; it takes only the registry mutex, never
     a lock the executing query already holds. *)
  Rel.Database.register_virtual (Core.Softdb.db sdb) ~name:"sys.sessions"
    ~schema:Obs.Sys_tables.sessions_schema (fun () ->
      List.rev_map Session.sys_row (locked t (fun () -> t.sessions)));
  (* partition-parallel queries fan their subtasks over this server's
     worker pool *)
  Scatter.install t.scheduler;
  t

let scheduler t = t.scheduler
let breaker t = t.breaker
let rwlock t = t.rwlock
let plan_cache t = t.cache
let sessions t = locked t (fun () -> List.rev t.sessions)
let softdb t = t.sdb

let new_session t =
  locked t (fun () ->
      t.next_session <- t.next_session + 1;
      let s =
        Session.make ~id:t.next_session ~sdb:t.sdb ~cache:t.cache
          ~metrics:t.metrics
      in
      t.sessions <- s :: t.sessions;
      Obs.Metrics.incr t.metrics "srv.sessions_opened";
      s)

let session_deadline t session =
  let ms =
    match Session.setting session "deadline_ms" with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> t.default_deadline_ms)
    | None -> t.default_deadline_ms
  in
  if ms <= 0 then None (* 0 or negative disables the deadline *)
  else Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.0))

let send_response cs (response : Proto.response) =
  try cs.conn.Transport.send (Proto.response_to_line response)
  with Transport.Closed -> cs.open_ <- false

(* ---- the connection loop -------------------------------------------------- *)

let handle_inline t cs (req : Proto.request) =
  match req.Proto.payload with
  | Proto.Ping -> send_response cs { Proto.id = req.Proto.id; payload = Proto.Pong }
  | Proto.Hello { client } ->
      let payload =
        Session.handle ~rwlock:t.rwlock ~deadline:None cs.session
          (Proto.Hello { client })
      in
      send_response cs { Proto.id = req.Proto.id; payload }
  | Proto.Cancel { target } ->
      Session.mark_cancelled cs.session target;
      send_response cs
        {
          Proto.id = req.Proto.id;
          payload = Proto.Ok_msg (Printf.sprintf "cancelled #%d" target);
        }
  | Proto.Quit ->
      cs.open_ <- false;
      send_response cs { Proto.id = req.Proto.id; payload = Proto.Bye }
  | _ -> assert false

let submit_job t cs (req : Proto.request) =
  let session = cs.session in
  let deadline = session_deadline t session in
  let job =
    {
      Scheduler.session = Session.id session;
      req_id = req.Proto.id;
      enqueued_at = Unix.gettimeofday ();
      deadline;
      cancelled = (fun () -> Session.is_cancelled session req.Proto.id);
      run =
        (fun () ->
          let payload =
            Session.handle ~rwlock:t.rwlock ~deadline session req.Proto.payload
          in
          Breaker.record_success t.breaker;
          send_response cs { Proto.id = req.Proto.id; payload });
      expired =
        (fun code ->
          let message =
            match code with
            | Proto.Deadline_exceeded -> "deadline exceeded in queue"
            | Proto.Cancelled -> "cancelled"
            | Proto.Shutting_down -> "server shutting down"
            | _ -> "not executed"
          in
          (* an admitted job that died of queue wait is the overload
             signal; cancel and shutdown say nothing about load *)
          if code = Proto.Deadline_exceeded then
            Breaker.record_failure t.breaker;
          send_response cs
            {
              Proto.id = req.Proto.id;
              payload = Proto.Failed { code; message };
            });
    }
  in
  (* the breaker is the outer door: when open it answers without the
     job ever reaching the scheduler's queue *)
  match Breaker.admit t.breaker with
  | `Reject retry_after_ms ->
      send_response cs
        { Proto.id = req.Proto.id; payload = Proto.Rejected { retry_after_ms } }
  | `Proceed -> (
      match Scheduler.submit t.scheduler job with
      | `Admitted -> ()
      | `Rejected retry_after_ms ->
          Breaker.record_failure t.breaker;
          send_response cs
            {
              Proto.id = req.Proto.id;
              payload = Proto.Rejected { retry_after_ms };
            }
      | `Shutting_down ->
          send_response cs
            {
              Proto.id = req.Proto.id;
              payload =
                Proto.Failed
                  {
                    code = Proto.Shutting_down;
                    message = "server shutting down";
                  };
            })

(* Serve one connection to completion: decode, dispatch, tear down.
   Blocking — run it on its own thread ([serve_connection_async]). *)
let serve_connection t conn =
  let session = new_session t in
  let cs = { conn; session; open_ = true } in
  let rec loop () =
    if cs.open_ then
      match conn.Transport.recv () with
      | None -> ()
      | Some line ->
          (match Proto.request_of_line line with
          | exception Proto.Protocol_error m ->
              (* a malformed frame means this client's stream is out of
                 sync — continuing to parse it would misattribute every
                 later frame.  Final error frame, then disconnect this
                 session only; siblings are untouched (each connection
                 has its own reader loop and session). *)
              Obs.Metrics.incr t.metrics "srv.protocol_errors";
              send_response cs
                {
                  Proto.id = 0;
                  payload =
                    Proto.Failed { code = Proto.Parse_error; message = m };
                };
              cs.open_ <- false
          | req -> (
              match req.Proto.payload with
              | Proto.Ping | Proto.Hello _ | Proto.Cancel _ | Proto.Quit ->
                  handle_inline t cs req
              | _ ->
                  if locked t (fun () -> t.shutting_down) then
                    send_response cs
                      {
                        Proto.id = req.Proto.id;
                        payload =
                          Proto.Failed
                            {
                              code = Proto.Shutting_down;
                              message = "server shutting down";
                            };
                      }
                  else submit_job t cs req));
          loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* the session's queued jobs answer Session_closed once [close]
         marks it; an open transaction rolls back and the write lock is
         surrendered, so a dropped client never wedges the engine *)
      Session.close ~rwlock:t.rwlock session;
      Obs.Metrics.incr t.metrics "srv.sessions_closed";
      conn.Transport.close ())
    loop

let serve_connection_async t conn =
  Thread.create (fun () -> serve_connection t conn) ()

(* ---- TCP ------------------------------------------------------------------ *)

let listen_tcp ?host t ~port =
  let listener = Transport.listen ?host ~port () in
  locked t (fun () -> t.listener <- Some listener);
  let rec accept_loop () =
    match Transport.accept listener with
    | conn ->
        ignore (serve_connection_async t conn);
        accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        () (* listener closed: shutdown *)
  in
  (Transport.port listener, accept_loop)

let shutdown t =
  let listener =
    locked t (fun () ->
        t.shutting_down <- true;
        let l = t.listener in
        t.listener <- None;
        l)
  in
  Option.iter Transport.close_listener listener;
  Scheduler.shutdown t.scheduler
