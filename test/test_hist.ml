module SD = Xtwig_hist.Sparse_dist
module EH = Xtwig_hist.Edge_hist
module HV = Hist_view
module H1 = Xtwig_hist.Hist1d
module WV = Xtwig_hist.Wavelet

let checkf = Alcotest.(check (float 1e-9))
let checkf4 = Alcotest.(check (float 1e-4))

(* ---------------- Sparse_dist ---------------- *)

let fig4a_dist () =
  (* f_A(10,100) = 0.5, f_A(100,10) = 0.5 *)
  SD.of_counted ~dims:2 [ ([| 10; 100 |], 1); ([| 100; 10 |], 1) ]

let test_sd_basics () =
  let d = fig4a_dist () in
  Alcotest.(check int) "dims" 2 (SD.dims d);
  Alcotest.(check int) "support" 2 (SD.support d);
  Alcotest.(check int) "total" 2 (SD.total d);
  checkf "frac present" 0.5 (SD.frac d [| 10; 100 |]);
  checkf "frac absent" 0.0 (SD.frac d [| 5; 5 |])

let test_sd_merging () =
  let d = SD.of_vectors ~dims:1 [ [| 3 |]; [| 3 |]; [| 5 |] ] in
  Alcotest.(check int) "support merges equal vectors" 2 (SD.support d);
  checkf "merged frac" (2.0 /. 3.0) (SD.frac d [| 3 |])

let test_sd_fracs_sum_to_one () =
  let d = fig4a_dist () in
  checkf "sum 1" 1.0 (SD.fold d ~init:0.0 ~f:(fun a _ f -> a +. f))

let test_sd_expected_product () =
  let d = fig4a_dist () in
  (* E[b*c] = 0.5*1000 + 0.5*1000 = 1000; E[b] = E[c] = 55 *)
  checkf "joint" 1000.0 (SD.expected_product d ~over:[ 0; 1 ]);
  checkf "mean b" 55.0 (SD.mean d 0);
  checkf "mean c" 55.0 (SD.mean d 1);
  (* repeated dim squares: E[b^2] = 0.5*100 + 0.5*10000 = 5050 *)
  checkf "square" 5050.0 (SD.expected_product d ~over:[ 0; 0 ])

let test_sd_marginalize () =
  let d = fig4a_dist () in
  let m = SD.marginalize d ~keep:[ 1 ] in
  Alcotest.(check int) "1 dim" 1 (SD.dims m);
  checkf "marginal frac" 0.5 (SD.frac m [| 100 |]);
  (* order matters *)
  let sw = SD.marginalize d ~keep:[ 1; 0 ] in
  checkf "swapped" 0.5 (SD.frac sw [| 100; 10 |])

let test_sd_correlation () =
  let anti = fig4a_dist () in
  Alcotest.(check bool) "anticorrelated" true (SD.correlation anti 0 1 < -0.99);
  let pos = SD.of_counted ~dims:2 [ ([| 10; 10 |], 1); ([| 100; 100 |], 1) ] in
  Alcotest.(check bool) "correlated" true (SD.correlation pos 0 1 > 0.99);
  let const = SD.of_counted ~dims:2 [ ([| 5; 1 |], 1); ([| 5; 9 |], 1) ] in
  checkf "constant dim" 0.0 (SD.correlation const 0 1)

let test_sd_empty () =
  let d = SD.of_vectors ~dims:2 [] in
  Alcotest.(check int) "support" 0 (SD.support d);
  checkf "frac" 0.0 (SD.frac d [| 0; 0 |]);
  checkf "expected product" 0.0 (SD.expected_product d ~over:[ 0 ])

(* ---------------- Edge_hist ---------------- *)

let test_eh_exact_roundtrip () =
  let d = fig4a_dist () in
  let h = HV.exact d in
  Alcotest.(check bool) "exact" true (HV.is_exact h);
  Alcotest.(check int) "2 buckets" 2 (HV.bucket_count h);
  checkf "total frac" 1.0 (HV.total_frac h);
  checkf "joint preserved" 1000.0 (HV.expected_product h ~over:[ 0; 1 ])

let test_eh_budget_one () =
  let d = fig4a_dist () in
  let h = EH.build ~budget:1 d in
  Alcotest.(check int) "1 bucket" 1 (HV.bucket_count h);
  (* single bucket: independence within -> E[b*c] = 55*55 *)
  checkf "collapsed joint" 3025.0 (HV.expected_product h ~over:[ 0; 1 ]);
  checkf "means preserved" 55.0 (HV.mean h 0)

let test_eh_means_always_preserved () =
  (* bucket means are weighted averages: the marginal mean is exact at
     any budget *)
  let d =
    SD.of_counted ~dims:2
      [ ([| 1; 4 |], 3); ([| 2; 1 |], 5); ([| 9; 2 |], 1); ([| 4; 4 |], 2) ]
  in
  let exact_mean = SD.mean d 0 in
  List.iter
    (fun budget ->
      let h = EH.build ~budget d in
      checkf4 (Printf.sprintf "mean at budget %d" budget) exact_mean (HV.mean h 0))
    [ 1; 2; 3; 4; 100 ]

let test_eh_enum_unconditional () =
  let h = HV.exact (fig4a_dist ()) in
  let buckets = Estimate_reference.enum h ~ctx:[] in
  Alcotest.(check int) "all buckets" 2 (List.length buckets);
  checkf "weights sum 1" 1.0 (List.fold_left (fun a (w, _) -> a +. w) 0.0 buckets)

let test_eh_enum_conditional () =
  let h = HV.exact (fig4a_dist ()) in
  (* conditioning on b=10 must select only the (10,100) bucket *)
  match Estimate_reference.enum h ~ctx:[ (0, 10.0) ] with
  | [ (w, rep) ] ->
      checkf "weight renormalized" 1.0 w;
      checkf "c is 100" 100.0 rep.(1)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 bucket, got %d" (List.length l))

let test_eh_enum_nearest_fallback () =
  let h = HV.exact (fig4a_dist ()) in
  (* 55 is in no bucket's range on dim 0; nearest (by mean distance) wins *)
  match Estimate_reference.enum h ~ctx:[ (0, 30.0) ] with
  | [ (w, rep) ] ->
      checkf "full weight" 1.0 w;
      checkf "nearest is b=10 bucket" 100.0 rep.(1)
  | _ -> Alcotest.fail "expected nearest-bucket fallback"

let test_eh_marginal_frac () =
  let h = HV.exact (fig4a_dist ()) in
  checkf "b=10 mass" 0.5 (HV.marginal_frac h ~ctx:[ (0, 10.0) ]);
  checkf "empty ctx mass" 1.0 (HV.marginal_frac h ~ctx:[]);
  checkf "no mass" 0.0 (HV.marginal_frac h ~ctx:[ (0, 55.0) ])

let test_eh_empty () =
  let h = EH.build (SD.of_vectors ~dims:2 []) in
  Alcotest.(check int) "no buckets" 0 (HV.bucket_count h);
  Alcotest.(check (list (pair (float 0.) (array (float 0.))))) "enum empty" []
    (Estimate_reference.enum h ~ctx:[])

let test_eh_size_bytes () =
  let h = HV.exact (fig4a_dist ()) in
  Alcotest.(check int) "2 buckets x (2*2+1)*4" (2 * 20) (EH.size_bytes h)

let test_eh_split_quality () =
  (* a bimodal 1-d distribution must split into its two modes *)
  let d =
    SD.of_counted ~dims:1 [ ([| 1 |], 50); ([| 2 |], 50); ([| 99 |], 50); ([| 100 |], 50) ]
  in
  let h = EH.build ~budget:2 d in
  Alcotest.(check int) "2 buckets" 2 (HV.bucket_count h);
  let means = List.map (fun (b : HV.bucket) -> b.mean.(0)) (HV.buckets h) in
  let sorted = List.sort compare means in
  Alcotest.(check bool) "split at the gap" true
    (List.nth sorted 0 < 3.0 && List.nth sorted 1 > 98.0)

(* property: at any budget total_frac = 1 and marginal means exact *)
let gen_dist =
  QCheck2.Gen.(
    let point = pair (pair (0 -- 20) (0 -- 20)) (1 -- 10) in
    map
      (fun pts ->
        SD.of_counted ~dims:2
          (List.map (fun ((a, b), m) -> ([| a; b |], m)) pts))
      (list_size (1 -- 30) point))

let prop_total_frac =
  QCheck2.Test.make ~name:"total_frac = 1" ~count:200
    QCheck2.Gen.(pair gen_dist (1 -- 8))
    (fun (d, budget) ->
      let h = EH.build ~budget d in
      Float.abs (HV.total_frac h -. 1.0) < 1e-9)

let prop_budget_respected =
  QCheck2.Test.make ~name:"bucket_count <= budget" ~count:200
    QCheck2.Gen.(pair gen_dist (1 -- 8))
    (fun (d, budget) -> HV.bucket_count (EH.build ~budget d) <= budget)

let prop_marginal_mean_exact =
  QCheck2.Test.make ~name:"marginal means exact at any budget" ~count:200
    QCheck2.Gen.(pair gen_dist (1 -- 8))
    (fun (d, budget) ->
      let h = EH.build ~budget d in
      Float.abs (HV.mean h 0 -. SD.mean d 0) < 1e-6
      && Float.abs (HV.mean h 1 -. SD.mean d 1) < 1e-6)

let prop_exact_preserves_joint =
  QCheck2.Test.make ~name:"exact histogram preserves E[product]" ~count:200 gen_dist
    (fun d ->
      let h = HV.exact d in
      Float.abs (HV.expected_product h ~over:[ 0; 1 ] -. SD.expected_product d ~over:[ 0; 1 ])
      < 1e-6)

(* ---------------- Hist1d ---------------- *)

let test_h1_basics () =
  let h = H1.build ~budget:4 [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |] in
  Alcotest.(check int) "count" 8 (H1.count h);
  Alcotest.(check bool) "buckets <= budget+" true (H1.bucket_count h <= 8);
  checkf4 "full range" 1.0 (H1.frac_range h 1.0 8.0);
  checkf4 "le max" 1.0 (H1.frac_le h 8.0);
  checkf4 "le min-1" 0.0 (H1.frac_le h 0.5)

let test_h1_range_estimates () =
  let data = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = H1.build ~budget:10 data in
  Alcotest.(check bool) "10% range ~ 0.1" true
    (Float.abs (H1.frac_range h 11.0 20.0 -. 0.1) < 0.05)

let test_h1_cmp () =
  let data = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = H1.build ~budget:10 data in
  Alcotest.(check bool) "gt 50 ~ 0.5" true (Float.abs (H1.frac_cmp h `Gt 50.0 -. 0.5) < 0.05);
  Alcotest.(check bool) "le 50 ~ 0.5" true (Float.abs (H1.frac_cmp h `Le 50.0 -. 0.5) < 0.05);
  Alcotest.(check bool) "ne ~ 1" true (H1.frac_cmp h `Ne 50.0 > 0.95)

let test_h1_eq_on_duplicates () =
  let data = Array.concat [ Array.make 50 3.0; Array.make 50 7.0 ] in
  let h = H1.build ~budget:2 data in
  checkf4 "eq 3 = 0.5" 0.5 (H1.frac_cmp h `Eq 3.0);
  checkf4 "eq 7 = 0.5" 0.5 (H1.frac_cmp h `Eq 7.0)

let test_h1_empty () =
  let h = H1.build [||] in
  Alcotest.(check int) "count" 0 (H1.count h);
  checkf "range" 0.0 (H1.frac_range h 0.0 10.0);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "domain" None (H1.domain h)

let test_h1_domain () =
  let h = H1.build [| 5.0; 1.0; 9.0 |] in
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "domain" (Some (1.0, 9.0))
    (H1.domain h)

let prop_h1_range_bounds =
  QCheck2.Test.make ~name:"frac_range in [0,1]" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (1 -- 50) (map float_of_int (0 -- 100)))
        (pair (map float_of_int (0 -- 100)) (map float_of_int (0 -- 100))))
    (fun (data, (a, b)) ->
      let h = H1.build ~budget:5 data in
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let f = H1.frac_range h lo hi in
      f >= 0.0 && f <= 1.0)

let prop_h1_full_domain_is_one =
  QCheck2.Test.make ~name:"frac over the full domain = 1" ~count:200
    QCheck2.Gen.(array_size (1 -- 50) (map float_of_int (0 -- 100)))
    (fun data ->
      let h = H1.build ~budget:5 data in
      match H1.domain h with
      | None -> false
      | Some (lo, hi) -> Float.abs (H1.frac_range h lo hi -. 1.0) < 1e-6)

(* ---------------- Mcv ---------------- *)

module MCV = Xtwig_hist.Mcv

let test_mcv_basics () =
  let m = MCV.build [ "a"; "a"; "a"; "b"; "b"; "c" ] in
  Alcotest.(check int) "count" 6 (MCV.count m);
  checkf "a" 0.5 (MCV.frac_eq m "a");
  checkf "b" (1.0 /. 3.0) (MCV.frac_eq m "b");
  checkf "c" (1.0 /. 6.0) (MCV.frac_eq m "c");
  checkf "missing" 0.0 (MCV.frac_eq m "zz");
  checkf "ne" 0.5 (MCV.frac_ne m "a")

let test_mcv_budget_and_other () =
  let values =
    List.concat_map (fun (v, n) -> List.init n (fun _ -> v))
      [ ("x", 10); ("y", 5); ("z", 3); ("w", 2) ]
  in
  let m = MCV.build ~budget:2 values in
  Alcotest.(check int) "2 retained" 2 (List.length (MCV.entries m));
  Alcotest.(check (option int)) "x is rank 0" (Some 0) (MCV.rank m "x");
  Alcotest.(check (option int)) "z dropped" None (MCV.rank m "z");
  checkf "other mass" 0.25 (MCV.other_mass m);
  Alcotest.(check int) "other distinct" 2 (MCV.other_distinct m);
  (* dropped values share the other mass *)
  checkf "z estimate" 0.125 (MCV.frac_eq m "z")

let test_mcv_deterministic_ties () =
  let m1 = MCV.build ~budget:1 [ "b"; "a" ] in
  let m2 = MCV.build ~budget:1 [ "a"; "b" ] in
  Alcotest.(check (list string)) "tie broken by name"
    (List.map fst (MCV.entries m1))
    (List.map fst (MCV.entries m2))

let prop_mcv_mass_conserved =
  QCheck2.Test.make ~name:"mcv masses sum to 1" ~count:200
    QCheck2.Gen.(
      pair (1 -- 6)
        (list_size (1 -- 40) (string_size ~gen:(char_range 'a' 'e') (1 -- 2))))
    (fun (budget, values) ->
      let m = MCV.build ~budget values in
      let kept = List.fold_left (fun a (_, f) -> a +. f) 0.0 (MCV.entries m) in
      Float.abs (kept +. MCV.other_mass m -. 1.0) < 1e-9)

(* ---------------- Wavelet ---------------- *)

let test_wavelet_exact_reconstruction () =
  let data = [| 4.0; 2.0; 8.0; 6.0; 1.0; 0.0; 3.0; 5.0 |] in
  let w = WV.build ~budget:8 data in
  let r = WV.reconstruct w in
  Array.iteri (fun i x -> checkf4 (Printf.sprintf "x%d" i) x r.(i)) data

let test_wavelet_truncation () =
  let data = Array.init 16 (fun i -> if i < 8 then 10.0 else 2.0) in
  let w = WV.build ~budget:2 data in
  Alcotest.(check bool) "kept <= 2" true (WV.coefficients_kept w <= 2);
  let r = WV.reconstruct w in
  (* a two-level step function is exactly 2 Haar coefficients *)
  Array.iteri
    (fun i x -> checkf4 (Printf.sprintf "step%d" i) (if i < 8 then 10.0 else 2.0) x)
    r

let test_wavelet_nonpow2 () =
  let data = [| 1.0; 2.0; 3.0 |] in
  let w = WV.build ~budget:16 data in
  Alcotest.(check int) "length preserved" 3 (Array.length (WV.reconstruct w));
  checkf4 "point" 2.0 (WV.point w 1);
  checkf "out of range" 0.0 (WV.point w 7)

let test_wavelet_empty () =
  let w = WV.build [||] in
  Alcotest.(check int) "no coeffs" 0 (WV.coefficients_kept w);
  Alcotest.(check int) "empty" 0 (Array.length (WV.reconstruct w))

let prop_wavelet_full_budget_exact =
  QCheck2.Test.make ~name:"full budget reconstructs exactly" ~count:100
    QCheck2.Gen.(array_size (1 -- 32) (map float_of_int (0 -- 50)))
    (fun data ->
      let w = WV.build ~budget:64 data in
      let r = WV.reconstruct w in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) data r)

let () =
  Alcotest.run "histogram"
    [
      ( "sparse-dist",
        [
          Alcotest.test_case "basics" `Quick test_sd_basics;
          Alcotest.test_case "merging" `Quick test_sd_merging;
          Alcotest.test_case "fracs sum to 1" `Quick test_sd_fracs_sum_to_one;
          Alcotest.test_case "expected product" `Quick test_sd_expected_product;
          Alcotest.test_case "marginalize" `Quick test_sd_marginalize;
          Alcotest.test_case "correlation" `Quick test_sd_correlation;
          Alcotest.test_case "empty" `Quick test_sd_empty;
        ] );
      ( "edge-hist",
        [
          Alcotest.test_case "exact roundtrip" `Quick test_eh_exact_roundtrip;
          Alcotest.test_case "budget 1 collapses" `Quick test_eh_budget_one;
          Alcotest.test_case "means preserved at any budget" `Quick
            test_eh_means_always_preserved;
          Alcotest.test_case "enum unconditional" `Quick test_eh_enum_unconditional;
          Alcotest.test_case "enum conditional" `Quick test_eh_enum_conditional;
          Alcotest.test_case "enum nearest fallback" `Quick test_eh_enum_nearest_fallback;
          Alcotest.test_case "marginal frac" `Quick test_eh_marginal_frac;
          Alcotest.test_case "empty" `Quick test_eh_empty;
          Alcotest.test_case "size bytes" `Quick test_eh_size_bytes;
          Alcotest.test_case "split quality" `Quick test_eh_split_quality;
        ] );
      ( "hist1d",
        [
          Alcotest.test_case "basics" `Quick test_h1_basics;
          Alcotest.test_case "range estimates" `Quick test_h1_range_estimates;
          Alcotest.test_case "comparisons" `Quick test_h1_cmp;
          Alcotest.test_case "equality on duplicates" `Quick test_h1_eq_on_duplicates;
          Alcotest.test_case "empty" `Quick test_h1_empty;
          Alcotest.test_case "domain" `Quick test_h1_domain;
        ] );
      ( "mcv",
        [
          Alcotest.test_case "basics" `Quick test_mcv_basics;
          Alcotest.test_case "budget and other mass" `Quick test_mcv_budget_and_other;
          Alcotest.test_case "deterministic ties" `Quick test_mcv_deterministic_ties;
        ] );
      ( "wavelet",
        [
          Alcotest.test_case "exact reconstruction" `Quick test_wavelet_exact_reconstruction;
          Alcotest.test_case "truncation" `Quick test_wavelet_truncation;
          Alcotest.test_case "non power of two" `Quick test_wavelet_nonpow2;
          Alcotest.test_case "empty" `Quick test_wavelet_empty;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_total_frac;
            prop_budget_respected;
            prop_marginal_mean_exact;
            prop_exact_preserves_joint;
            prop_h1_range_bounds;
            prop_h1_full_domain_is_one;
            prop_mcv_mass_conserved;
            prop_wavelet_full_budget_exact;
          ] );
    ]
