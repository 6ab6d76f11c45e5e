(* The three workloads and their seeded request streams.

   Every connection of a run draws its operations from its own stream,
   a pure function of (workload, seed, connection, pass): the served run
   and the traced replay of the same seed see the same operations in the
   same per-connection order.  The data comes from
   [Workload.Purchase.load] with the same seed. *)

type workload = Oltp_point | Scan_analytics | Mixed_drift

let workloads = [ Oltp_point; Scan_analytics; Mixed_drift ]

let name = function
  | Oltp_point -> "oltp-point"
  | Scan_analytics -> "scan-analytics"
  | Mixed_drift -> "mixed-drift"

let of_name s = List.find_opt (fun w -> name w = s) workloads

type spec = {
  rows : int;  (** purchase rows loaded *)
  conns : int;  (** closed-loop connections *)
  wal : bool;  (** a file WAL is attached *)
  prepared : bool;  (** connections prepare {!prepared_count} handles *)
}

let spec = function
  | Oltp_point -> { rows = 20_000; conns = 2; wal = false; prepared = true }
  | Scan_analytics ->
      { rows = 100_000; conns = 1; wal = false; prepared = false }
  | Mixed_drift -> { rows = 20_000; conns = 2; wal = true; prepared = true }

type kind =
  | Point
  | Prepared
  | Ship_eq
  | Scan_qty
  | Scan_amount
  | Agg_count
  | Agg_group
  | Ship_range
  | Txn

let kinds =
  [ Point; Prepared; Ship_eq; Scan_qty; Scan_amount; Agg_count; Agg_group;
    Ship_range; Txn ]

let kind_name = function
  | Point -> "point"
  | Prepared -> "prepared"
  | Ship_eq -> "ship_eq"
  | Scan_qty -> "scan_qty"
  | Scan_amount -> "scan_amount"
  | Agg_count -> "agg_count"
  | Agg_group -> "agg_group"
  | Ship_range -> "ship_range"
  | Txn -> "txn"

type txn = {
  inserted : int list;  (** ids the INSERT adds *)
  deleted : int list;  (** ids the DELETE removes: the previous txn's *)
  statements : string list;  (** INSERT, then DELETE when [seq > 0] *)
}

type op =
  | Read of { kind : kind; sql : string }  (** an ad-hoc statement *)
  | Exec of { slot : int }  (** execute prepared handle [handle slot] *)
  | Write of txn  (** BEGIN, statements, COMMIT *)

let op_kind = function
  | Read { kind; _ } -> kind
  | Exec _ -> Prepared
  | Write _ -> Txn

(* ---- shared query shapes --------------------------------------------------- *)

let day n = Rel.Date.add_days Workload.Purchase.base_date n
let point_sql id = Printf.sprintf "SELECT * FROM purchase WHERE id = %d" id

(* Reads answered by the ship_3w exception union: every [ship_eq] date
   lies in 1999, before any date a mixed-drift insert ships on, so each
   read's answer is fixed by the seed and checkable against a copy that
   never saw the writes. *)
let ship_eq_sql rng = Workload.Queries.purchase_ship_eq (day (Random.State.int rng 365))

(* ---- prepared statements ---------------------------------------------------- *)

(* Twice Core.Plan_cache's default capacity, so the shared LRU cache
   evicts and sessions re-prepare. *)
let prepared_count = 128

let handle slot = Printf.sprintf "p%d" slot
let slot_of_handle h = int_of_string (String.sub h 1 (String.length h - 1))

let prepared_sql ~seed ~rows slot =
  let rng = Random.State.make [| seed; 0x9e; slot |] in
  if slot mod 2 = 0 then point_sql (1 + Random.State.int rng rows)
  else
    Printf.sprintf "SELECT * FROM purchase WHERE order_date = DATE '%s'"
      (Rel.Date.to_string (day (Random.State.int rng 365)))

(* Zipf(1) over the slots: slot i is drawn with weight 1/(i+1), so the
   64 hottest take ~87% of executes and the cold half keeps evicting. *)
let zipf_cdf =
  let w = Array.init prepared_count (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf rng =
  let u = Random.State.float rng 1.0 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if zipf_cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (prepared_count - 1)

(* ---- transactions ----------------------------------------------------------- *)

let txn_rows = 4

(* Each (pass, connection) owns a disjoint id range far above the loaded
   ids, so replay passes over one database never collide. *)
let txn_id_base ~pass ~conn = (100_000_000 * (pass + 1)) + (1_000_000 * conn)

(* Inserted rows are ordered from 2000-04-01 on, after every loaded ship
   date, and ~25% ship late, so ship_3w's exception table is maintained
   on every few commits. *)
let late_insert_fraction = 0.25
let regions = [| "north"; "south"; "east"; "west" |]

let insert_values rng id =
  let order = Rel.Date.add_days (Rel.Date.of_ymd 2000 4 1) (Random.State.int rng 60) in
  let delay =
    if Random.State.float rng 1.0 < late_insert_fraction then
      22 + Random.State.int rng 69
    else Random.State.int rng 22
  in
  let quantity = 1 + Random.State.int rng 50 in
  let amount =
    (9.99 *. float_of_int quantity) +. Random.State.float rng 10.0 -. 5.0
  in
  Printf.sprintf "(%d, %d, DATE '%s', DATE '%s', %.2f, %d, '%s')" id
    (1 + Random.State.int rng 500)
    (Rel.Date.to_string order)
    (Rel.Date.to_string (Rel.Date.add_days order delay))
    amount quantity
    regions.(Random.State.int rng (Array.length regions))

let make_txn rng ~pass ~conn seq =
  let base = txn_id_base ~pass ~conn in
  let ids j = List.init txn_rows (fun i -> base + (j * txn_rows) + i) in
  let inserted = ids seq in
  let deleted = if seq = 0 then [] else ids (seq - 1) in
  let insert =
    "INSERT INTO purchase VALUES "
    ^ String.concat ", " (List.map (insert_values rng) inserted)
  in
  let statements =
    match deleted with
    | [] -> [ insert ]
    | first :: _ ->
        [
          insert;
          Printf.sprintf "DELETE FROM purchase WHERE id BETWEEN %d AND %d"
            first
            (first + txn_rows - 1);
        ]
  in
  { inserted; deleted; statements }

(* ---- streams ---------------------------------------------------------------- *)

type stream = {
  workload : workload;
  rng : Random.State.t;
  rows : int;
  pass : int;
  conn : int;
  mutable txns : int;
}

let stream workload ~seed ~pass ~conn =
  {
    workload;
    rng = Random.State.make [| seed; Hashtbl.hash (name workload); conn |];
    rows = (spec workload).rows;
    pass;
    conn;
    txns = 0;
  }

(* oltp-point: 50% ad-hoc PK points, 30% prepared executes, 20% ship_date
   equalities through the exception union *)
let oltp_read s =
  let r = Random.State.float s.rng 1.0 in
  if r < 0.5 then
    Read { kind = Point; sql = point_sql (1 + Random.State.int s.rng s.rows) }
  else if r < 0.8 then Exec { slot = zipf s.rng }
  else Read { kind = Ship_eq; sql = ship_eq_sql s.rng }

(* scan-analytics: wide scans and aggregates on columns no soft
   constraint covers, plus week-long ship_date ranges *)
let scan_read s =
  let q = 1 + Random.State.int s.rng 50 in
  match Random.State.int s.rng 5 with
  | 0 ->
      Read
        {
          kind = Scan_qty;
          sql = Printf.sprintf "SELECT * FROM purchase WHERE quantity = %d" q;
        }
  | 1 ->
      let lo = (9.99 *. float_of_int q) -. 5.0 in
      Read
        {
          kind = Scan_amount;
          sql =
            Printf.sprintf
              "SELECT * FROM purchase WHERE amount BETWEEN %.2f AND %.2f" lo
              (lo +. 10.0);
        }
  | 2 ->
      Read
        {
          kind = Agg_count;
          sql =
            Printf.sprintf
              "SELECT COUNT(*), SUM(amount) FROM purchase WHERE quantity > %d"
              (q - 1);
        }
  | 3 ->
      Read
        {
          kind = Agg_group;
          sql =
            Printf.sprintf
              "SELECT region, COUNT(*), SUM(amount) FROM purchase WHERE \
               quantity <= %d GROUP BY region"
              q;
        }
  | _ ->
      let start = 7 * Random.State.int s.rng 52 in
      Read
        {
          kind = Ship_range;
          sql =
            Workload.Queries.purchase_ship_range (day start) (day (start + 6));
        }

let next s =
  match s.workload with
  | Oltp_point -> oltp_read s
  | Scan_analytics -> scan_read s
  | Mixed_drift ->
      if Random.State.float s.rng 1.0 < 0.25 then begin
        let t = make_txn s.rng ~pass:s.pass ~conn:s.conn s.txns in
        s.txns <- s.txns + 1;
        Write t
      end
      else oltp_read s

(* The wire requests of one operation, in order. *)
let payloads = function
  | Read { sql; _ } -> [ Srv.Proto.Statement sql ]
  | Exec { slot } -> [ Srv.Proto.Execute { handle = handle slot } ]
  | Write t ->
      (Srv.Proto.Begin_txn :: List.map (fun s -> Srv.Proto.Statement s) t.statements)
      @ [ Srv.Proto.Commit_txn ]

(* ---- set-up ------------------------------------------------------------------- *)

let ship_3w_ddl =
  "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - order_date \
   BETWEEN 0 AND 21) SOFT"

let late_shipments_ddl =
  "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w"
