(* Tests for the network substrate: the TCP state machine, the socket
   layer in both shapes, and the AMP type-confusion case study. *)

let check = Alcotest.check
let fail = Alcotest.fail

let state_t = Alcotest.testable (Fmt.of_to_string Knet.Tcp.state_to_string) ( = )

let ok_or_fail = function Ok v -> v | Error e -> fail (Ksim.Errno.to_string e)

(* TCP ------------------------------------------------------------------------- *)

let established_pair () =
  let a = Knet.Tcp.create ~iss:100 () and b = Knet.Tcp.create ~iss:300 () in
  ok_or_fail (Knet.Tcp.listen b);
  ok_or_fail (Knet.Tcp.connect a);
  ignore (Knet.Tcp.run_link a b);
  (a, b)

let test_handshake () =
  let a, b = established_pair () in
  check state_t "client established" Knet.Tcp.Established (Knet.Tcp.state a);
  check state_t "server established" Knet.Tcp.Established (Knet.Tcp.state b)

let test_handshake_segment_count () =
  let a = Knet.Tcp.create () and b = Knet.Tcp.create () in
  ok_or_fail (Knet.Tcp.listen b);
  ok_or_fail (Knet.Tcp.connect a);
  let n = Knet.Tcp.run_link a b in
  check Alcotest.int "three-way handshake" 3 n

let test_data_transfer () =
  let a, b = established_pair () in
  ignore (ok_or_fail (Knet.Tcp.send a "hello "));
  ignore (ok_or_fail (Knet.Tcp.send a "world"));
  ignore (Knet.Tcp.run_link a b);
  check Alcotest.string "in-order delivery" "hello world" (Knet.Tcp.received b)

let test_bidirectional_transfer () =
  let a, b = established_pair () in
  ignore (ok_or_fail (Knet.Tcp.send a "ping"));
  ignore (ok_or_fail (Knet.Tcp.send b "pong"));
  ignore (Knet.Tcp.run_link a b);
  check Alcotest.string "a got" "pong" (Knet.Tcp.received a);
  check Alcotest.string "b got" "ping" (Knet.Tcp.received b)

let test_send_requires_connection () =
  let a = Knet.Tcp.create () in
  check Alcotest.bool "EPIPE when closed" true (Knet.Tcp.send a "x" = Error Ksim.Errno.EPIPE)

let test_active_close_teardown () =
  let a, b = established_pair () in
  ok_or_fail (Knet.Tcp.close a);
  ignore (Knet.Tcp.run_link a b);
  (* Half-closed: a waits for b's FIN, b may still send. *)
  check state_t "a fin-wait-2" Knet.Tcp.Fin_wait_2 (Knet.Tcp.state a);
  check state_t "b close-wait" Knet.Tcp.Close_wait (Knet.Tcp.state b);
  ok_or_fail (Knet.Tcp.close b);
  ignore (Knet.Tcp.run_link a b);
  check state_t "a time-wait" Knet.Tcp.Time_wait (Knet.Tcp.state a);
  check state_t "b closed" Knet.Tcp.Closed (Knet.Tcp.state b)

let test_simultaneous_close () =
  let a, b = established_pair () in
  ok_or_fail (Knet.Tcp.close a);
  ok_or_fail (Knet.Tcp.close b);
  ignore (Knet.Tcp.run_link a b);
  let terminal s = s = Knet.Tcp.Time_wait || s = Knet.Tcp.Closed in
  check Alcotest.bool "a terminal" true (terminal (Knet.Tcp.state a));
  check Alcotest.bool "b terminal" true (terminal (Knet.Tcp.state b))

let test_simultaneous_open () =
  let a = Knet.Tcp.create ~iss:100 () and b = Knet.Tcp.create ~iss:200 () in
  ok_or_fail (Knet.Tcp.connect a);
  ok_or_fail (Knet.Tcp.connect b);
  ignore (Knet.Tcp.run_link a b);
  (* Both sides sent SYN; both should at least leave SYN_SENT. *)
  check Alcotest.bool "a progressed" true (Knet.Tcp.state a <> Knet.Tcp.Syn_sent);
  check Alcotest.bool "b progressed" true (Knet.Tcp.state b <> Knet.Tcp.Syn_sent)

let test_rst_kills_connection () =
  let a, _b = established_pair () in
  Knet.Tcp.handle a (Knet.Tcp.plain_seg ~rst:true ());
  check state_t "reset" Knet.Tcp.Closed (Knet.Tcp.state a)

let test_stale_segment_ignored () =
  let a, b = established_pair () in
  ignore (ok_or_fail (Knet.Tcp.send a "abc"));
  ignore (Knet.Tcp.run_link a b);
  (* Replay the same data segment (stale seq): must not duplicate. *)
  Knet.Tcp.handle b (Knet.Tcp.plain_seg ~ack:true ~seq:101 ~payload:"abc" ());
  check Alcotest.string "no duplication" "abc" (Knet.Tcp.received b)

let test_listen_only_from_closed () =
  let a, _ = established_pair () in
  check Alcotest.bool "EINVAL" true (Knet.Tcp.listen a = Error Ksim.Errno.EINVAL)

let prop_random_segments_never_crash =
  (* Robustness: arbitrary segments never raise; the machine stays in a
     defined state.  (This is exactly what a C stack cannot promise.) *)
  QCheck2.Test.make ~name:"tcp survives arbitrary segments" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (triple (quad bool bool bool bool) (pair (int_range 0 400) (int_range 0 400))
           (string_size ~gen:printable (int_range 0 5))))
    (fun segs ->
      let t = Knet.Tcp.create () in
      ignore (Knet.Tcp.listen t);
      List.iter
        (fun ((syn, ack, fin, rst), (seq, ack_no), payload) ->
          Knet.Tcp.handle t (Knet.Tcp.plain_seg ~syn ~ack ~fin ~rst ~seq ~ack_no ~payload ()))
        segs;
      ignore (Knet.Tcp.take_outbox t);
      true)

(* Socket layer ------------------------------------------------------------------- *)

let test_typed_socket_tcp () =
  let pair = ok_or_fail (Knet.Sock.Typed.socket_pair "tcp") in
  ok_or_fail (Knet.Sock.Typed.connect pair);
  check Alcotest.bool "connected" true (Knet.Sock.Typed.is_connected pair);
  ignore (ok_or_fail (Knet.Sock.Typed.send pair "data"));
  Knet.Sock.Typed.deliver pair;
  check Alcotest.string "delivered" "data" (Knet.Sock.Typed.received_at_peer pair)

let test_typed_socket_dgram () =
  let pair = ok_or_fail (Knet.Sock.Typed.socket_pair "dgram") in
  ok_or_fail (Knet.Sock.Typed.connect pair);
  ignore (ok_or_fail (Knet.Sock.Typed.send pair "gram"));
  Knet.Sock.Typed.deliver pair;
  check Alcotest.string "delivered" "gram" (Knet.Sock.Typed.received_at_peer pair)

let test_typed_socket_unknown_proto () =
  check Alcotest.bool "EINVAL" true
    (match Knet.Sock.Typed.socket_pair "sctp" with Error Ksim.Errno.EINVAL -> true | _ -> false)

let test_typed_protocols_listed () =
  check Alcotest.(list string) "registry" [ "dgram"; "tcp" ] (Knet.Sock.Typed.protocols ())

let test_dyn_socket_works_when_consistent () =
  let a = ok_or_fail (Knet.Sock.Dyn_style.socket "tcp") in
  let b = ok_or_fail (Knet.Sock.Dyn_style.socket "tcp") in
  ok_or_fail (Knet.Sock.Dyn_style.connect_tcp_pair a b);
  ignore (ok_or_fail (Knet.Sock.Dyn_style.send a "via void*"));
  Knet.Sock.Dyn_style.deliver_tcp ~src:a ~dst:b;
  check Alcotest.string "works while casts line up" "via void*" (Knet.Sock.Dyn_style.received b)

let test_dyn_socket_mismatch_is_eproto () =
  (* The whole Dyn_style vtable is migrated off cast_exn (the klint R1
     ratchet cleared this subsystem): a socket whose ops and private data
     disagree now sends EPROTO instead of oopsing with Type_confusion. *)
  let bad = Knet.Sock.Dyn_style.mismatched_socket () in
  (match Knet.Sock.Dyn_style.send bad "boom" with
  | Error Ksim.Errno.EPROTO -> ()
  | Ok _ -> fail "mismatched send must not succeed"
  | Error e -> fail ("expected EPROTO, got " ^ Ksim.Errno.to_string e));
  check Alcotest.string "mismatched receive reads empty" ""
    (Knet.Sock.Dyn_style.received bad)

let test_dyn_socket_checked_query_survives_mismatch () =
  let bad = Knet.Sock.Dyn_style.mismatched_socket () in
  check Alcotest.bool "checked query degrades gracefully" false
    (Knet.Sock.Dyn_style.is_connected bad)

(* Supervised sockets: a handle minted before an oops answers ESTALE,
   including on the rpc that performs the deferred microreboot. *)
let test_supervised_rpc_stale_handle () =
  let module S = Knet.Sock.Supervised in
  let fp = Ksim.Failpoint.create ~seed:1 () in
  let sock = S.create ~fp ~name:"sock" () in
  let sup = S.supervisor sock in
  let pair () =
    let h = ok_or_fail (S.socket_pair sock "dgram") in
    ok_or_fail (S.connect sock h);
    h
  in
  let old = pair () in
  check Alcotest.bool "rpc before the oops" true (Result.is_ok (S.rpc sock old "ping"));
  Ksim.Failpoint.configure fp S.panic_site ~enabled:true ~times:1 ();
  check Alcotest.bool "panic contained" true (S.rpc sock old "boom" = Error Ksim.Errno.EIO);
  let rec past_backoff n =
    match S.rpc sock old "again" with
    | Error Ksim.Errno.EINTR when n > 0 -> past_backoff (n - 1)
    | r -> r
  in
  check Alcotest.bool "pre-oops handle is stale" true
    (past_backoff 1_000 = Error Ksim.Errno.ESTALE);
  check Alcotest.int "that rpc rebooted the layer" 1 (Ksim.Supervisor.epoch sup);
  check Alcotest.int "one stale rejection" 1 (Ksim.Supervisor.stale_rejected sup);
  check Alcotest.bool "fresh handle works" true (Result.is_ok (S.rpc sock (pair ()) "pong"))

(* AMP: the CVE-2020-12351 shape ----------------------------------------------------- *)

let test_amp_unsafe_honest_traffic () =
  let t = Knet.Amp.Unsafe.create () in
  Knet.Amp.Unsafe.register t ~channel:1 Knet.Amp.Control;
  Knet.Amp.Unsafe.register t ~channel:2 Knet.Amp.Data;
  ok_or_fail (Knet.Amp.Unsafe.receive t (Knet.Amp.encode_control ~channel:1 { op = 7; flags = 1 }));
  ok_or_fail (Knet.Amp.Unsafe.receive t (Knet.Amp.encode_data ~channel:2 { body = "payload" }));
  check Alcotest.(list int) "control op" [ 7 ] (Knet.Amp.Unsafe.control_ops t);
  check Alcotest.int "data bytes" 7 (Knet.Amp.Unsafe.data_bytes t)

let test_amp_unsafe_confusion_crashes () =
  let t = Knet.Amp.Unsafe.create () in
  Knet.Amp.Unsafe.register t ~channel:1 Knet.Amp.Control;
  let attack = Knet.Amp.confusion_packet ~control_channel:1 "evil" in
  match Knet.Amp.Unsafe.receive t attack with
  | _ -> fail "expected Type_confusion"
  | exception Ksim.Dyn.Type_confusion { expected; actual } ->
      check Alcotest.string "cast target" "amp.control_block" expected;
      check Alcotest.string "actual payload" "amp.data_payload" actual

let test_amp_typed_confusion_is_eproto () =
  let t = Knet.Amp.Typed.create () in
  Knet.Amp.Typed.register t ~channel:1 Knet.Amp.Control;
  let attack = Knet.Amp.confusion_packet ~control_channel:1 "evil" in
  check Alcotest.bool "EPROTO, no crash" true
    (Knet.Amp.Typed.receive t attack = Error Ksim.Errno.EPROTO);
  check Alcotest.(list int) "no op executed" [] (Knet.Amp.Typed.control_ops t)

let test_amp_typed_honest_traffic () =
  let t = Knet.Amp.Typed.create () in
  Knet.Amp.Typed.register t ~channel:1 Knet.Amp.Control;
  Knet.Amp.Typed.register t ~channel:2 Knet.Amp.Data;
  ok_or_fail (Knet.Amp.Typed.receive t (Knet.Amp.encode_control ~channel:1 { op = 3; flags = 0 }));
  ok_or_fail (Knet.Amp.Typed.receive t (Knet.Amp.encode_data ~channel:2 { body = "xy" }));
  check Alcotest.(list int) "ops" [ 3 ] (Knet.Amp.Typed.control_ops t);
  check Alcotest.int "bytes" 2 (Knet.Amp.Typed.data_bytes t)

let test_amp_unknown_channel () =
  let t = Knet.Amp.Typed.create () in
  check Alcotest.bool "EINVAL" true
    (Knet.Amp.Typed.receive t (Knet.Amp.encode_data ~channel:9 { body = "x" })
    = Error Ksim.Errno.EINVAL)

let test_amp_malformed () =
  match Knet.Amp.claimed_kind "" with
  | _ -> fail "expected Malformed"
  | exception Knet.Amp.Malformed _ -> ()

let prop_typed_amp_never_crashes =
  QCheck2.Test.make ~name:"typed AMP stack survives arbitrary packets" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 20))
    (fun packet ->
      let t = Knet.Amp.Typed.create () in
      Knet.Amp.Typed.register t ~channel:1 Knet.Amp.Control;
      Knet.Amp.Typed.register t ~channel:2 Knet.Amp.Data;
      match Knet.Amp.Typed.receive t packet with
      | Ok () | Error _ -> true
      | exception Knet.Amp.Malformed _ -> true)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "knet"
    [
      ( "tcp",
        Alcotest.test_case "handshake" `Quick test_handshake
        :: Alcotest.test_case "handshake segments" `Quick test_handshake_segment_count
        :: Alcotest.test_case "data transfer" `Quick test_data_transfer
        :: Alcotest.test_case "bidirectional" `Quick test_bidirectional_transfer
        :: Alcotest.test_case "send requires connection" `Quick test_send_requires_connection
        :: Alcotest.test_case "active close" `Quick test_active_close_teardown
        :: Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close
        :: Alcotest.test_case "simultaneous open" `Quick test_simultaneous_open
        :: Alcotest.test_case "rst" `Quick test_rst_kills_connection
        :: Alcotest.test_case "stale segment ignored" `Quick test_stale_segment_ignored
        :: Alcotest.test_case "listen from closed only" `Quick test_listen_only_from_closed
        :: qcheck [ prop_random_segments_never_crash ] );
      ( "sock",
        [
          Alcotest.test_case "typed tcp" `Quick test_typed_socket_tcp;
          Alcotest.test_case "typed dgram" `Quick test_typed_socket_dgram;
          Alcotest.test_case "unknown proto" `Quick test_typed_socket_unknown_proto;
          Alcotest.test_case "protocols listed" `Quick test_typed_protocols_listed;
          Alcotest.test_case "supervised rpc on a stale handle" `Quick
            test_supervised_rpc_stale_handle;
          Alcotest.test_case "dyn-style consistent" `Quick test_dyn_socket_works_when_consistent;
          Alcotest.test_case "dyn-style mismatch is EPROTO" `Quick
            test_dyn_socket_mismatch_is_eproto;
          Alcotest.test_case "dyn-style checked query survives mismatch" `Quick
            test_dyn_socket_checked_query_survives_mismatch;
        ] );
      ( "amp",
        Alcotest.test_case "unsafe honest traffic" `Quick test_amp_unsafe_honest_traffic
        :: Alcotest.test_case "unsafe confusion crashes" `Quick test_amp_unsafe_confusion_crashes
        :: Alcotest.test_case "typed confusion is EPROTO" `Quick test_amp_typed_confusion_is_eproto
        :: Alcotest.test_case "typed honest traffic" `Quick test_amp_typed_honest_traffic
        :: Alcotest.test_case "unknown channel" `Quick test_amp_unknown_channel
        :: Alcotest.test_case "malformed" `Quick test_amp_malformed
        :: qcheck [ prop_typed_amp_never_crashes ] );
    ]
