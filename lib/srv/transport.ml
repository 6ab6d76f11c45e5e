(* Connection transports: how protocol frames move.

   A connection is four closures over a frame (= one protocol line, no
   newline).  Two implementations:

   - [pipe]: a symmetric in-memory duplex built from two blocking
     queues — fully deterministic, no descriptors, no ports; the test
     harness runs many client sessions against one server inside one
     process.
   - TCP ([listen]/[accept]/[connect]): newline-delimited frames over a
     socket, for [softdb serve] and the bench load generator.

   [send] is safe to call from any domain or thread (workers complete
   jobs concurrently and answer out of order); [recv] is meant for a
   single consumer — the connection's reader loop. *)

type t = {
  send : string -> unit;
  recv : unit -> string option; (* None at end of stream *)
  close : unit -> unit;
  peer : string;
}

exception Closed

(* ---- in-memory pipe ------------------------------------------------------ *)

(* One direction: a blocking unbounded queue.  Backpressure is not this
   layer's job — the scheduler's bounded queue is where the server
   pushes back (with an explicit Rejected), so a transport that
   silently stalls producers would only hide the signal. *)
(* @guarded-by srv.transport.chan *)
type chan = {
  m : Mutex.t;
  nonempty : Condition.t;
  q : string Queue.t;
  mutable closed : bool;
}

let chan () =
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    closed = false;
  }

let chan_send c line =
  let closed =
    (* @acquires srv.transport.chan *)
    Obs.Lockdep.with_mutex "srv.transport.chan" c.m (fun () ->
        if not c.closed then begin
          Queue.push line c.q;
          Condition.signal c.nonempty
        end;
        c.closed)
  in
  if closed then raise Closed

let chan_recv c =
  (* @acquires srv.transport.chan *)
  Obs.Lockdep.with_mutex "srv.transport.chan" c.m (fun () ->
      while Queue.is_empty c.q && not c.closed do
        (* @waits srv.transport.chan *)
        Condition.wait c.nonempty c.m
      done;
      if Queue.is_empty c.q then None else Some (Queue.pop c.q))

let chan_close c =
  (* @acquires srv.transport.chan *)
  Obs.Lockdep.with_mutex "srv.transport.chan" c.m (fun () ->
      c.closed <- true;
      Condition.broadcast c.nonempty)

let pipe () =
  let c2s = chan () (* client -> server *) and s2c = chan () in
  let close () =
    chan_close c2s;
    chan_close s2c
  in
  let client =
    {
      send = chan_send c2s;
      recv = (fun () -> chan_recv s2c);
      close;
      peer = "pipe:server";
    }
  and server =
    {
      send = chan_send s2c;
      recv = (fun () -> chan_recv c2s);
      close;
      peer = "pipe:client";
    }
  in
  (client, server)

(* ---- TCP ------------------------------------------------------------------ *)

(* Frames are newline-delimited; the protocol escapes every literal
   newline inside a field, so input_line is exact framing.  Writes are
   serialized behind a per-connection mutex because responses come from
   worker domains. *)
let of_fd fd ~peer =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wm = Mutex.create () in
  let closed = ref false in
  let send line =
    (* @acquires srv.transport.write *)
    Obs.Lockdep.with_mutex "srv.transport.write" wm (fun () ->
        if !closed then raise Closed;
        try
          output_string oc line;
          output_char oc '\n';
          flush oc
        with Sys_error _ -> raise Closed)
  in
  let recv () = try Some (input_line ic) with End_of_file | Sys_error _ -> None in
  let close () =
    (* @acquires srv.transport.write *)
    Obs.Lockdep.with_mutex "srv.transport.write" wm (fun () ->
        if not !closed then begin
          closed := true;
          (try flush oc with Sys_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end)
  in
  { send; recv; close; peer }

type listener = { lfd : Unix.file_descr; port : int }

let listen ?(host = "127.0.0.1") ~port () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd addr;
  Unix.listen lfd 64;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p (* resolves port 0 to the real one *)
    | _ -> port
  in
  { lfd; port }

let port l = l.port

let accept l =
  let fd, peer_addr = Unix.accept l.lfd in
  let peer =
    match peer_addr with
    | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX s -> s
  in
  of_fd fd ~peer

let close_listener l = try Unix.close l.lfd with Unix.Unix_error _ -> ()

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd fd ~peer:(Printf.sprintf "%s:%d" host port)
