(* Self-tests for the benchmark's own logic: tail percentiles, seeded
   streams, span self time and failure accounting. *)

open Perfbench

let floats n = Array.init n float_of_int

let percentile_refusal () =
  Alcotest.(check (option (float 0.0))) "p99 of 1000 has 10 beyond" (Some 989.0)
    (Pstats.percentile (floats 1000) 0.99);
  Alcotest.(check (option (float 0.0))) "p99 of 999 refused" None
    (Pstats.percentile (floats 999) 0.99);
  Alcotest.(check (option (float 0.0))) "p95 of 200 has 10 beyond" (Some 189.0)
    (Pstats.percentile (floats 200) 0.95);
  Alcotest.(check (option (float 0.0))) "p95 of 199 refused" None
    (Pstats.percentile (floats 199) 0.95);
  Alcotest.(check (option (float 0.0))) "median needs no tail" (Some 2.0)
    (Pstats.median [| 3.0; 1.0; 2.0 |])

let lines workload ~seed ~conn n =
  let s = Gen.stream workload ~seed ~pass:0 ~conn in
  List.init n (fun _ ->
      String.concat "|"
        (List.map
           (fun p -> Srv.Proto.request_to_line { Srv.Proto.id = 0; payload = p })
           (Gen.payloads (Gen.next s))))

let same_seed_same_stream () =
  List.iter
    (fun w ->
      let name = Gen.name w in
      Alcotest.(check (list string)) (name ^ ": same seed")
        (lines w ~seed:42 ~conn:1 2000) (lines w ~seed:42 ~conn:1 2000);
      Alcotest.(check bool) (name ^ ": another seed differs") false
        (lines w ~seed:42 ~conn:1 200 = lines w ~seed:43 ~conn:1 200);
      Alcotest.(check bool) (name ^ ": another connection differs") false
        (lines w ~seed:42 ~conn:0 200 = lines w ~seed:42 ~conn:1 200))
    Gen.workloads;
  Alcotest.(check string) "prepared statements are seeded"
    (Gen.prepared_sql ~seed:5 ~rows:20_000 17)
    (Gen.prepared_sql ~seed:5 ~rows:20_000 17)

let span id parent start stop =
  { Trace.id; parent; req = 0; name = "s"; start_ns = Int64.of_int start;
    stop_ns = Int64.of_int stop }

let self_time () =
  (* root [0,100]: children [10,30] and [20,50] overlap, [90,120] runs
     past the root; grandchild [12,18] sits inside child 1 *)
  let spans =
    [| span 0 (-1) 0 100; span 1 0 10 30; span 2 0 20 50; span 3 0 90 120;
       span 4 1 12 18 |]
  in
  Alcotest.(check (array (float 1e-9))) "self times"
    [| 50.0; 14.0; 30.0; 30.0; 6.0 |] (Trace.self_times spans);
  let tr = Trace.create ~enabled:true () in
  let v =
    Trace.with_span tr ~req:7 "outer" (fun () ->
        Trace.with_span tr ~req:7 "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value passes through" 42 v;
  match Trace.spans tr with
  | [| outer; inner |] ->
      Alcotest.(check int) "inner's parent" outer.Trace.id inner.Trace.parent;
      Alcotest.(check int) "outer is a root" (-1) outer.Trace.parent;
      Alcotest.(check int) "request id" 7 inner.Trace.req
  | _ -> Alcotest.fail "expected two spans"

(* A transport whose server answers every request with [answer]. *)
let fake_transport answer =
  let last = ref 0 in
  {
    Srv.Transport.send =
      (fun line -> last := (Srv.Proto.request_of_line line).Srv.Proto.id);
    recv =
      (fun () ->
        Option.map
          (fun payload -> Srv.Proto.response_to_line { Srv.Proto.id = !last; payload })
          answer);
    close = ignore;
    peer = "fake";
  }

let outcome_of answer op =
  let c = Client.make (fake_transport answer) 0 in
  fst (Client.run_op c ~prepared_sql:(fun _ -> "") op)

let failed_ratio_counts_refusals () =
  let read = Gen.Read { kind = Gen.Point; sql = Gen.point_sql 1 } in
  let acct = Client.new_acct () in
  Client.record acct (outcome_of (Some (Srv.Proto.Rejected { retry_after_ms = 5 })) read);
  Alcotest.(check (float 0.0)) "one refused of one" 1.0 (Client.failed_ratio acct);
  Alcotest.(check int) "counted as refused" 1 acct.Client.refused;
  Client.record acct
    (outcome_of (Some (Srv.Proto.Result_set { columns = [ "id" ]; rows = [] })) read);
  Alcotest.(check (float 0.0)) "one refused of two" 0.5 (Client.failed_ratio acct);
  Client.record acct
    (outcome_of
       (Some (Srv.Proto.Failed { code = Srv.Proto.Deadline_exceeded; message = "late" }))
       read);
  Client.record acct (outcome_of None read);
  Alcotest.(check int) "deadline counted" 1 acct.Client.deadline;
  Alcotest.(check int) "dropped connection counted" 1 acct.Client.dropped;
  Alcotest.(check (float 1e-12)) "three of four failed" 0.75 (Client.failed_ratio acct);
  (* a transaction refused at BEGIN is one failed attempt, not a retry *)
  let txn = Gen.Write (Gen.make_txn (Random.State.make [| 1 |]) ~pass:0 ~conn:0 0) in
  let acct = Client.new_acct () in
  Client.record acct (outcome_of (Some (Srv.Proto.Rejected { retry_after_ms = 5 })) txn);
  Alcotest.(check (pair int int)) "txn attempted/failed" (1, 1)
    (acct.Client.attempted, acct.Client.failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [ Alcotest.test_case "tail percentile refusal" `Quick percentile_refusal ] );
      ("gen", [ Alcotest.test_case "seeded streams" `Quick same_seed_same_stream ]);
      ("trace", [ Alcotest.test_case "self time" `Quick self_time ]);
      ( "client",
        [ Alcotest.test_case "failed_ratio counts refusals" `Quick failed_ratio_counts_refusals ] );
    ]
