(* The benchmark's statistics: percentiles, quartiles (checked against
   the values Python's statistics.quantiles gives), spreads, the
   regression/unresolved rules, and the JSON codec's round trip. *)

open Benchkit

let close = Alcotest.(check (float 1e-12))
let ten = List.init 10 (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = Array.of_list (List.rev ten) in
  close "p50 is the 5th of 10" 5.0 (Summary.percentile xs 50.0);
  close "p99 is the largest of 10" 10.0 (Summary.percentile xs 99.0);
  close "p0 is the smallest" 1.0 (Summary.percentile xs 0.0);
  close "p100 is the largest" 10.0 (Summary.percentile xs 100.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Summary.percentile [||] 50.0));
  (* a failed operation is +inf and misses every percentile it reaches *)
  let with_failure = Array.append (Array.make 99 1.0) [| infinity |] in
  close "p99 below the failure" 1.0 (Summary.percentile with_failure 99.0);
  Alcotest.(check bool) "p100 is the failure" true (Summary.percentile with_failure 100.0 = infinity)

let test_tail_level () =
  let level n = Summary.tail_level n in
  Alcotest.(check (option (float 0.0))) "9 samples" None (level 9);
  Alcotest.(check (option (float 0.0))) "20 samples" (Some 50.0) (level 20);
  Alcotest.(check (option (float 0.0))) "40 samples" (Some 75.0) (level 40);
  Alcotest.(check (option (float 0.0))) "100 samples" (Some 90.0) (level 100);
  Alcotest.(check (option (float 0.0))) "999 samples" (Some 90.0) (level 999);
  Alcotest.(check (option (float 0.0))) "1000 samples" (Some 99.0) (level 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples" (Some 99.9) (level 10_000)

let check_quartiles name xs (q1, q2, q3) =
  let a, b, c = Summary.quartiles xs in
  close (name ^ " q1") q1 a;
  close (name ^ " q2") q2 b;
  close (name ^ " q3") q3 c

let test_quartiles () =
  check_quartiles "1..10" ten (2.75, 5.5, 8.25);
  check_quartiles "three" [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check_quartiles "two" [ 20.0; 10.0 ] (7.5, 15.0, 22.5);
  check_quartiles "unsorted" [ 3.1; 1.2; 9.9; 4.4; 5.0; 7.7; 2.2 ] (2.2, 4.4, 7.7);
  Alcotest.check_raises "one value" (Invalid_argument "Summary.quartiles: needs at least two values")
    (fun () -> ignore (Summary.quartiles [ 1.0 ]))

let test_spread () =
  close "median of ten" 5.5 (Summary.median ten);
  close "median of odd" 2.0 (Summary.median [ 3.0; 1.0; 2.0 ]);
  close "1..10" ((8.25 -. 2.75) /. 5.5) (Summary.spread ten);
  close "constant" 0.0 (Summary.spread [ 4.0; 4.0; 4.0 ]);
  close "one run" 0.0 (Summary.spread [ 4.0 ])

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Summary.verdict_label v))
    ( = )

let test_verdict () =
  let parent = [ 10.0; 10.1; 9.9; 10.0; 10.05; 9.95 ] in
  let shift d = List.map (fun x -> x *. (1.0 +. d)) parent in
  let lower = Summary.verdict ~better:Summary.Lower ~bound:0.1 in
  let higher = Summary.verdict ~better:Summary.Higher ~bound:0.1 in
  Alcotest.check verdict "same" Summary.Pass (lower parent parent);
  Alcotest.check verdict "5% slower is within a 10% bound" Summary.Pass (lower parent (shift 0.05));
  Alcotest.check verdict "20% slower regresses" Summary.Regression (lower parent (shift 0.2));
  Alcotest.check verdict "20% faster passes" Summary.Pass (lower parent (shift (-0.2)));
  Alcotest.check verdict "higher-better: 20% less regresses" Summary.Regression
    (higher parent (shift (-0.2)));
  Alcotest.check verdict "higher-better: 20% more passes" Summary.Pass (higher parent (shift 0.2));
  let wide = [ 5.0; 10.0; 15.0; 20.0; 25.0 ] in
  Alcotest.check verdict "wide parent spread is unresolved" Summary.Unresolved (lower wide wide);
  Alcotest.check verdict "wide change spread is unresolved" Summary.Unresolved (lower parent wide);
  Alcotest.check verdict "wide, but every change run better" Summary.Pass
    (lower wide [ 1.0; 2.0; 4.0 ])

let test_json () =
  let open Json in
  let v =
    Obj
      [
        ("correct", Bool true);
        ("attempted", Num 150000.0);
        ("metrics", Obj [ ("p50_ms", Obj [ ("value", Num 0.028123456789); ("unit", Str "ms") ]) ]);
        ("names", Arr [ Str "a\"b\\c\n"; Null ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (parse (to_string v) = v);
  Alcotest.(check string) "integers print whole" "150000" (to_string (Num 150000.0));
  Alcotest.(check bool) "all digits kept" true
    (parse (to_string (Num 0.1234567890123456)) = Num 0.1234567890123456);
  Alcotest.(check bool) "+inf saturates" true (parse (to_string (Num infinity)) = Num Float.max_float);
  Alcotest.(check bool) "garbage rejected" true (Result.is_error (parse_res "{\"a\": }"))

let () =
  Alcotest.run "benchmark"
    [
      ( "summary",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail level" `Quick test_tail_level;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "median and spread" `Quick test_spread;
          Alcotest.test_case "regression and unresolved rules" `Quick test_verdict;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json ]);
    ]
