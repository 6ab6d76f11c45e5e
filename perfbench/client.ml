(* The closed-loop load generator: one thread per connection, each an
   application session that sends its next request only after the
   previous answer arrived.

   Failure accounting is per operation (a read, a prepared execute, or a
   whole BEGIN..COMMIT transaction) and never retries behind the
   caller's back: a [Rejected] answer, a [Failed] one (deadline expiry
   included) or a dropped connection each make the operation one failed
   attempt, and a failed operation contributes no latency sample. *)

(* ---- accounting --------------------------------------------------------------- *)

type verdict =
  | Answered
  | Refused
  | Errored of Srv.Proto.error_code * string  (** code, server's message *)
  | Dropped

let verdict_of = function
  | None -> Dropped
  | Some (Srv.Proto.Rejected _) -> Refused
  | Some (Srv.Proto.Failed { code; message }) -> Errored (code, message)
  | Some _ -> Answered

type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable refused : int;
  mutable errored : int;
  mutable deadline : int;
  mutable dropped : int;
  mutable wrong : int;  (** answered, but with a wrong answer *)
  mutable messages : string list;  (** the first few distinct server errors *)
}

let new_acct () =
  { attempted = 0; failed = 0; refused = 0; errored = 0; deadline = 0;
    dropped = 0; wrong = 0; messages = [] }

let max_messages = 8

let note_message a m =
  if List.length a.messages < max_messages && not (List.mem m a.messages) then
    a.messages <- a.messages @ [ m ]

let count_failure a = function
  | Answered -> a.wrong <- a.wrong + 1
  | Refused -> a.refused <- a.refused + 1
  | Errored (Srv.Proto.Deadline_exceeded, _) -> a.deadline <- a.deadline + 1
  | Errored (_, m) ->
      a.errored <- a.errored + 1;
      note_message a m
  | Dropped -> a.dropped <- a.dropped + 1

(* One operation's outcome: [None] when it succeeded, otherwise the
   verdict that failed it. *)
let record a outcome =
  a.attempted <- a.attempted + 1;
  match outcome with
  | None -> ()
  | Some v ->
      a.failed <- a.failed + 1;
      count_failure a v

let merge_acct into a =
  into.attempted <- into.attempted + a.attempted;
  into.failed <- into.failed + a.failed;
  into.refused <- into.refused + a.refused;
  into.errored <- into.errored + a.errored;
  into.deadline <- into.deadline + a.deadline;
  into.dropped <- into.dropped + a.dropped;
  into.wrong <- into.wrong + a.wrong;
  List.iter (note_message into) a.messages

let failed_ratio a =
  if a.attempted = 0 then 0.0
  else float_of_int a.failed /. float_of_int a.attempted

(* ---- one connection --------------------------------------------------------- *)

(* A distinct read's first served answer; later servings of the same SQL
   must return as many rows. *)
type answer = { rows : Rel.Value.t array list; n : int }

(* One measured operation, completed at [done_ns]. *)
type sample = {
  done_ns : int64;
  kind : Gen.kind;
  lat_ns : float;
  ok : bool;
  requests : int;  (** wire requests answered *)
}

type conn = {
  index : int;
  transport : Srv.Transport.t;
  mutable next_id : int;
  mutable alive : bool;
  acct : acct;
  mutable samples : sample list;  (** measured operations, newest first *)
  mutable ops : int;  (** operations issued, warm-up included *)
  answers : (string, answer) Hashtbl.t;
  mutable live_ids : int list;  (** this connection's acknowledged inserts *)
  mutable deleted_ids : int list;  (** ids acknowledged commits removed *)
  mutable commits : int;
  mutable user_bytes : int;  (** statement text of acknowledged commits *)
}

let make transport index =
  {
    index;
    transport;
    next_id = 0;
    alive = true;
    acct = new_acct ();
    samples = [];
    ops = 0;
    answers = Hashtbl.create 1024;
    live_ids = [];
    deleted_ids = [];
    commits = 0;
    user_bytes = 0;
  }

let connect ~port index = make (Srv.Transport.connect ~port ()) index

(* One request/response exchange; [None] once the connection is gone.
   Requests are never pipelined, so the answer must carry our id. *)
let roundtrip c payload =
  if not c.alive then None
  else begin
    c.next_id <- c.next_id + 1;
    let id = c.next_id in
    match
      c.transport.Srv.Transport.send
        (Srv.Proto.request_to_line { Srv.Proto.id; payload });
      c.transport.Srv.Transport.recv ()
    with
    | Some line -> (
        match Srv.Proto.response_of_line line with
        | { Srv.Proto.id = rid; payload } when rid = id -> Some payload
        | _ | (exception Srv.Proto.Protocol_error _) ->
            c.alive <- false;
            None)
    | None | (exception Srv.Transport.Closed) | (exception Unix.Unix_error _) ->
        c.alive <- false;
        None
  end

let ok_payload r = match verdict_of r with Answered -> None | v -> Some v

(* Remember a read's first answer; a later serving with another row
   count is a wrong answer. *)
let note_answer c sql rows =
  let n = List.length rows in
  match Hashtbl.find_opt c.answers sql with
  | None ->
      Hashtbl.add c.answers sql { rows; n };
      None
  | Some a -> if a.n = n then None else Some Answered

let read c sql payload =
  match roundtrip c payload with
  | Some (Srv.Proto.Result_set { rows; _ }) -> (note_answer c sql rows, 1)
  | r -> (Some (verdict_of r), 0)

(* Run one operation; returns [(outcome, wire requests answered)]. *)
let run_op c ~prepared_sql op =
  match op with
  | Gen.Read { sql; _ } -> read c sql (Srv.Proto.Statement sql)
  | Gen.Exec { slot } ->
      read c (prepared_sql slot) (Srv.Proto.Execute { handle = Gen.handle slot })
  | Gen.Write t ->
      let answered = ref 0 in
      let step payload =
        let v = ok_payload (roundtrip c payload) in
        if v = None then incr answered;
        v
      in
      let outcome =
        match step Srv.Proto.Begin_txn with
        | Some v -> Some v
        | None -> (
            let rec stmts = function
              | [] -> step Srv.Proto.Commit_txn
              | s :: rest -> (
                  match step (Srv.Proto.Statement s) with
                  | None -> stmts rest
                  | Some v ->
                      ignore (roundtrip c Srv.Proto.Rollback_txn);
                      Some v)
            in
            stmts t.Gen.statements)
      in
      if outcome = None then begin
        c.live_ids <- t.Gen.inserted;
        c.deleted_ids <- List.rev_append t.Gen.deleted c.deleted_ids;
        c.commits <- c.commits + 1;
        c.user_bytes <-
          c.user_bytes
          + List.fold_left (fun n s -> n + String.length s) 0 t.Gen.statements
      end;
      (outcome, !answered)

(* Session start: name it, then bind every prepared handle. *)
let open_session c ~prepared ~prepared_sql =
  let hello =
    roundtrip c (Srv.Proto.Hello { client = Printf.sprintf "perfbench-%d" c.index })
  in
  record c.acct (ok_payload hello);
  if prepared then
    for slot = 0 to Gen.prepared_count - 1 do
      record c.acct
        (ok_payload
           (roundtrip c
              (Srv.Proto.Prepare { handle = Gen.handle slot; sql = prepared_sql slot })))
    done

(* The closed loop: operations before [start_ns] warm up, those started
   in [start_ns, stop_ns) are sampled. *)
let drive c stream ~prepared_sql ~start_ns ~stop_ns =
  let rec loop () =
    let t0 = Trace.now_ns () in
    if c.alive && Int64.compare t0 stop_ns < 0 then begin
      let op = Gen.next stream in
      c.ops <- c.ops + 1;
      let outcome, answered = run_op c ~prepared_sql op in
      let t1 = Trace.now_ns () in
      record c.acct outcome;
      if Int64.compare t0 start_ns >= 0 then
        c.samples <-
          {
            done_ns = t1;
            kind = Gen.op_kind op;
            lat_ns = Int64.to_float (Int64.sub t1 t0);
            ok = outcome = None;
            requests = answered;
          }
          :: c.samples;
      loop ()
    end
  in
  loop ()

let ping_rtts_ns c n =
  Array.init n (fun _ ->
      let t0 = Trace.now_ns () in
      ignore (roundtrip c Srv.Proto.Ping);
      Int64.to_float (Int64.sub (Trace.now_ns ()) t0))

let close c =
  ignore (roundtrip c Srv.Proto.Quit);
  c.transport.Srv.Transport.close ()

(* What the server process needs from one segment: compact, so the
   load generator's bookkeeping stays out of the served process's heap. *)
type summary = {
  lat : (Gen.kind * float array) list;
      (** ns, operations that succeeded inside the window, by kind *)
  requests : int;  (** wire requests answered inside the window *)
  acct : acct;  (** every operation, warm-up included *)
  ops : int array;  (** operations issued, per connection *)
  commits : int;
  user_bytes : int;  (** statement text of acknowledged commits *)
  live_ids : int list;  (** ids the last acknowledged commits inserted *)
  deleted_ids : int list;  (** ids acknowledged commits deleted *)
  ping_ns : float array;
}

(* Fold a connection's first answers into [answers]; a distinct read
   served with two row counts is one more wrong answer. *)
let merge_answers answers (c : conn) =
  Hashtbl.iter
    (fun sql (a : answer) ->
      match Hashtbl.find_opt answers sql with
      | None -> Hashtbl.add answers sql a
      | Some b ->
          if a.n <> b.n then begin
            c.acct.failed <- c.acct.failed + 1;
            c.acct.wrong <- c.acct.wrong + 1
          end)
    c.answers

(* The load-generating side of a served segment: open the sessions
   (connection [i] draws stream [conn_base + i]), call
   [on_window start_ns stop_ns] once the measured window is fixed, drive
   every connection on its own thread, then time [pings] idle pings on
   the first connection.  First answers accumulate in [answers]. *)
let run workload ~seed ~port ~conn_base ~warmup_s ~seconds ~pings ~answers ~on_window =
  let sp = Gen.spec workload in
  let prepared_sql = Gen.prepared_sql ~seed ~rows:sp.Gen.rows in
  let conns = Array.init sp.Gen.conns (fun i -> connect ~port (conn_base + i)) in
  Array.iter (fun c -> open_session c ~prepared:sp.Gen.prepared ~prepared_sql) conns;
  let start_ns = Int64.add (Trace.now_ns ()) (Int64.of_float (warmup_s *. 1e9)) in
  let stop_ns = Int64.add start_ns (Int64.of_float (seconds *. 1e9)) in
  on_window start_ns stop_ns;
  let threads =
    Array.map
      (fun c ->
        Thread.create
          (fun () ->
            drive c
              (Gen.stream workload ~seed ~pass:0 ~conn:c.index)
              ~prepared_sql ~start_ns ~stop_ns)
          ())
      conns
  in
  Array.iter Thread.join threads;
  let ping_ns = ping_rtts_ns conns.(0) pings in
  Array.iter close conns;
  let cs = Array.to_list conns in
  List.iter (merge_answers answers) cs;
  let inside =
    List.filter
      (fun (s : sample) -> Int64.compare s.done_ns stop_ns < 0)
      (List.concat_map (fun (c : conn) -> c.samples) cs)
  in
  let acct = new_acct () in
  List.iter (fun (c : conn) -> merge_acct acct c.acct) cs;
  let sum f = List.fold_left (fun n (c : conn) -> n + f c) 0 cs in
  {
    lat =
      List.map
        (fun k ->
          ( k,
            Array.of_list
              (List.filter_map
                 (fun (s : sample) -> if s.ok && s.kind = k then Some s.lat_ns else None)
                 inside) ))
        Gen.kinds;
    requests = List.fold_left (fun n (s : sample) -> n + s.requests) 0 inside;
    acct;
    ops = Array.of_list (List.map (fun (c : conn) -> c.ops) cs);
    commits = sum (fun st -> st.commits);
    user_bytes = sum (fun st -> st.user_bytes);
    live_ids = List.concat_map (fun (c : conn) -> c.live_ids) cs;
    deleted_ids = List.concat_map (fun (c : conn) -> c.deleted_ids) cs;
    ping_ns;
  }
