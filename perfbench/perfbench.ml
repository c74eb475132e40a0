(* The repository benchmark: closed-loop CMO builds through the public
   API, every output checked against the reference interpreter, one
   JSON result line at the end.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] times whole builds with no tracing and reports the
   end-to-end metrics; [--trace 1] re-drives one build stage by stage
   under benchmark-side spans ({!Staged}) and reports the per-layer
   metrics.  The workloads and the reason for each are at [workloads]
   and in BENCHMARK.json; perfbench/layers.json says which end-to-end
   metric each layer metric should move, and where each one comes
   from. *)

open Cmo_driver
open Cmo_workload
module Image = Cmo_link.Image
module Objfile = Cmo_link.Objfile
module Interp = Cmo_il.Interp
module Vm = Cmo_vm.Vm
module Json = Cmo_obs.Json
module Store = Cmo_cache.Store
module Invalidate = Cmo_cache.Invalidate
module Server = Cmo_server.Server
module Client = Cmo_server.Client
module Proto = Cmo_server.Proto

let now = Unix.gettimeofday
let out_dir = Filename.concat "perfbench" "_out"

(* --- statistics ---------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* The highest percentile with at least ten samples beyond it: the
   (n - 10)-th smallest of n samples.  With ten samples or fewer no
   percentile qualifies, and the maximum stands in (labelled as such). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then (100, a.(n - 1)) else (100 * (n - 10) / n, a.(n - 11))

(* --- inputs from the seed ------------------------------------------ *)

(* The seed picks the training and reference path mixes ([arg 1] of
   every generated [main], masked to 7 bits) and the edit sequence of
   the storm; seed 0 reproduces the Suite personality's own inputs.
   The programs themselves are the Suite personalities: their
   generator seeds are the workload's identity, because a different
   generator seed is a different program whose run time and memory
   differ by tens of percent. *)
let mix base seed = Int64.of_int ((((base + seed) mod 128) + 128) mod 128)

let training_input cfg seed =
  let a = Genprog.training_input cfg in
  a.(1) <- mix 17 seed;
  a

let reference_input cfg seed =
  let a = Genprog.reference_input cfg in
  a.(1) <- mix 23 seed;
  a

let storm_seed seed = 11 + seed
let sources listing = List.map (fun (name, text) -> { Pipeline.name; text }) listing

(* --- one build, as the benchmark sees it ---------------------------- *)

(* The deterministic counts of a build's public report, plus the stage
   walls the per-layer driver rows need.  Built from a [Pipeline.report]
   or from the JSON a daemon reply carries. *)
type view = {
  fe_wall : float;
  hlo_wall : float;
  llo_wall : float;
  link_cpu : float;
  phase_cpu : float;
  phase_wall : float;
  peak : int;
  counts : (string * int) list;
  cache_hits : int;
  cache_misses : int;
  reoptimized : int;
}

let view_of_report (r : Pipeline.report) =
  let loader =
    match r.Pipeline.loader_stats with
    | None -> []
    | Some s ->
      Cmo_naim.Loader.
        [
          ("loader.acquires", s.acquires);
          ("loader.cache_hits", s.cache_hits);
          ("loader.uncompactions", s.uncompactions);
          ("loader.compactions", s.compactions);
          ("loader.offloads", s.offloads);
          ("loader.symtab_compactions", s.symtab_compactions);
        ]
  in
  let hlo =
    match r.Pipeline.hlo with
    | None -> []
    | Some h ->
      [
        ("phase.rewrites", h.Cmo_hlo.Hlo.rewrites);
        ( "inline.ops",
          match h.Cmo_hlo.Hlo.inline_stats with
          | Some s -> s.Cmo_hlo.Inline.operations
          | None -> 0 );
      ]
  in
  let c = r.Pipeline.cache in
  {
    fe_wall = r.Pipeline.frontend_wall_seconds;
    hlo_wall = r.Pipeline.hlo_wall_seconds;
    llo_wall = r.Pipeline.llo_wall_seconds;
    link_cpu = r.Pipeline.link_seconds;
    phase_cpu = Pipeline.phase_cpu_seconds r;
    phase_wall = Pipeline.phase_wall_seconds r;
    peak = r.Pipeline.mem_peak;
    counts =
      [
        ("peak_model_bytes", r.Pipeline.mem_peak);
        ("llo.mach_instrs", r.Pipeline.llo.Cmo_llo.Llo.mach_instrs);
        ("llo.spilled_vregs", r.Pipeline.llo.Cmo_llo.Llo.spilled_vregs);
        ("llo.peephole_rewrites", r.Pipeline.llo.Cmo_llo.Llo.peephole_rewrites);
      ]
      @ hlo @ loader;
    cache_hits = (match c with Some c -> c.Pipeline.hits | None -> 0);
    cache_misses = (match c with Some c -> c.Pipeline.misses | None -> 0);
    reoptimized =
      (match c with Some c -> List.length c.Pipeline.cmo_reoptimized | None -> 0);
  }

let view_of_json j =
  let rec at j = function
    | [] -> Json.num j
    | f :: rest -> Option.bind (Json.member f j) (fun j -> at j rest)
  in
  let f path = Option.value ~default:0.0 (at j path) in
  let i path = int_of_float (f path) in
  let present path = at j path <> None in
  let opt_counts prefix keys =
    List.filter_map
      (fun (name, path) -> if present path then Some (prefix ^ name, i path) else None)
      keys
  in
  {
    fe_wall = f [ "wall_seconds"; "frontend" ];
    hlo_wall = f [ "wall_seconds"; "hlo" ];
    llo_wall = f [ "wall_seconds"; "llo" ];
    link_cpu = f [ "cpu_seconds"; "link" ];
    phase_cpu = f [ "cpu_seconds"; "phases" ];
    phase_wall = f [ "wall_seconds"; "phases" ];
    peak = i [ "memory"; "peak" ];
    counts =
      [
        ("peak_model_bytes", i [ "memory"; "peak" ]);
        ("llo.mach_instrs", i [ "llo"; "mach_instrs" ]);
        ("llo.spilled_vregs", i [ "llo"; "spilled_vregs" ]);
        ("llo.peephole_rewrites", i [ "llo"; "peephole_rewrites" ]);
      ]
      @ opt_counts ""
          [
            ("phase.rewrites", [ "hlo"; "rewrites" ]);
            ("inline.ops", [ "hlo"; "inline_operations" ]);
          ]
      @ opt_counts "loader."
          [
            ("acquires", [ "loader"; "acquires" ]);
            ("cache_hits", [ "loader"; "cache_hits" ]);
            ("uncompactions", [ "loader"; "uncompactions" ]);
            ("compactions", [ "loader"; "compactions" ]);
            ("offloads", [ "loader"; "offloads" ]);
            ("symtab_compactions", [ "loader"; "symtab_compactions" ]);
          ];
    cache_hits = i [ "cache"; "hits" ];
    cache_misses = i [ "cache"; "misses" ];
    reoptimized =
      (match Option.bind (Json.member "cache" j) (Json.member "cmo_reoptimized") with
      | Some a -> List.length (Option.value ~default:[] (Json.arr a))
      | None -> 0);
  }

type kind = Build | Edit | Revisit

type sample = {
  kind : kind;
  state : int;  (** Which tree state was built; 0 is the pristine one. *)
  wall : float;  (** Submit to artifacts, the timed region. *)
  cpu : float;  (** Process CPU over the same region. *)
  minor : float;  (** Minor-heap words allocated by the calling domain. *)
  majors : int;
  view : view;
  code_instrs : int;  (** Machine instructions in the linked image. *)
  cycles : int;
  ok : bool;
  reply_bytes : int;
}

(* The output check, outside the timed region.  The first build of a
   tree state runs on the VM with the reference input, and its return
   value and printed output must equal the reference interpreter's on
   the frontend IL of the same state.  Every later build of that state
   must produce an image identical to the checked one; the VM is
   deterministic, so an identical image has identical output and
   cycles. *)
type checked = (int, Image.t * bool * int) Hashtbl.t

let check (checked : checked) ~state ~input ~(expect : Interp.outcome) image =
  match Hashtbl.find_opt checked state with
  | Some (first, ok, cycles) -> (ok && first = image, cycles)
  | None ->
    let o = Vm.run ~input image in
    let ok = o.Vm.ret = expect.Interp.ret && o.Vm.output = expect.Interp.output in
    Hashtbl.replace checked state (image, ok, o.Vm.cycles);
    (ok, o.Vm.cycles)

let checked_image (checked : checked) state =
  Option.map (fun (image, _, _) -> image) (Hashtbl.find_opt checked state)

let interp_reference ~input listing =
  Interp.run ~input (Pipeline.frontend (sources listing))

(* Each timed region starts from a compacted heap, as a fresh compiler
   process would, so that one build's garbage does not bill the next. *)
let timed f =
  Gc.compact ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let m0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let w0 = now () in
  let r = f () in
  let w1 = now () in
  let c1 = Sys.time () in
  let m1 = Gc.minor_words () in
  let majors1 = (Gc.quick_stat ()).Gc.major_collections in
  (r, w1 -. w0, c1 -. c0, m1 -. m0, majors1 - majors0)

(* --- workloads ----------------------------------------------------- *)

type env = {
  step : unit -> sample;  (** The next request of the closed loop. *)
  min_samples : int;
      (** The timed loop runs at least this many requests as well as at
          least [--seconds]. *)
  trace_samples : int;  (** Untraced requests in a traced run. *)
  checked_image : int -> Image.t option;
      (** The VM-checked image of a state, once one was built; every
          other build of the state was compared with it. *)
  stop : unit -> unit;
  deterministic_minor : bool;
      (** Minor words are exactly repeatable: in-process, one domain. *)
  staged_options : Options.t;
      (** What the traced run stages: the workload's options at
          [jobs] = 1 and without a store. *)
  staged_profile : Cmo_profile.Db.t option;
  staged_listing : (string * string) list;
  staged_input : int64 array;  (** The reference input. *)
  trace_extra : unit -> (string * float) list;
      (** Per-layer rows only this workload can produce (store replay,
          daemon stats); zero rows elsewhere. *)
}

(* A cacheless one-shot workload: every request is a cold build of the
   same tree through [Pipeline.compile].  With [check_j1], every image
   must also equal a [jobs] = 1 build's. *)
let oneshot ~cfg ~seed ~listing ~(options : Options.t) ~pbo ~check_j1 ~min_samples =
  let srcs = sources listing in
  let profile =
    if pbo then Some (Pipeline.train ~inputs:[ training_input cfg seed ] srcs) else None
  in
  let input = reference_input cfg seed in
  let expect = interp_reference ~input listing in
  let staged_options = { options with Options.jobs = 1 } in
  let j1_image =
    if check_j1 then Some (Pipeline.compile ?profile staged_options srcs).Pipeline.image
    else None
  in
  let build () = Pipeline.compile ?profile options srcs in
  let checked = Hashtbl.create 1 in
  let step () =
    let b, wall, cpu, minor, majors = timed build in
    let ok, cycles = check checked ~state:0 ~input ~expect b.Pipeline.image in
    let same = match j1_image with Some img -> img = b.Pipeline.image | None -> true in
    {
      kind = Build;
      state = 0;
      wall;
      cpu;
      minor;
      majors;
      view = view_of_report b.Pipeline.report;
      code_instrs = Array.length b.Pipeline.image.Image.code;
      cycles;
      ok = ok && same;
      reply_bytes = 0;
    }
  in
  {
    step;
    min_samples;
    trace_samples = 3;
    checked_image = checked_image checked;
    stop = ignore;
    deterministic_minor = options.Options.jobs = 1;
    staged_options;
    staged_profile = profile;
    staged_listing = listing;
    staged_input = input;
    trace_extra = (fun () -> []);
  }

let mcad1 = Suite.find "mcad1"

(* Never-built trees per edit session, each a store write, and the
   fewest requests for built trees after them, each a store read: fixed
   counts keep build_s_p50's mix of the two the same in every run. *)
let edits = 8
let revisits = 24

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d = Filename.concat out_dir (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !n) in
    remove_tree d;
    Sys.mkdir d 0o755;
    d

(* The edit loop: one client against an in-process cmocd with one
   builder.  The client walks a storm's first [edits] never-built trees
   in order (store writes), then walks all the trees it has built
   again, from state 0, for at least [revisits] requests and until the
   window ends (store reads). *)
let edit_daemon ~seed =
  (* The storm's distinct trees in order of first appearance: its undo
     steps only repeat earlier trees, which the revisit walk covers. *)
  let states =
    let seen = Hashtbl.create 64 in
    Genprog.storm mcad1 ~steps:(3 * edits) ~seed:(storm_seed seed)
    |> Array.to_list
    |> List.filter (fun listing ->
           let key = Digest.string (String.concat "\000" (List.map snd listing)) in
           (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true))
    |> List.filteri (fun i _ -> i <= edits)
    |> Array.of_list
  in
  if Array.length states <= edits then failwith "edit-daemon: storm too short";
  let input = reference_input mcad1 seed in
  let expected = Hashtbl.create 16 in
  let expect idx =
    match Hashtbl.find_opt expected idx with
    | Some e -> e
    | None ->
      let e = interp_reference ~input states.(idx) in
      Hashtbl.replace expected idx e;
      e
  in
  let dir = fresh_dir "daemon" in
  let config =
    {
      Server.socket = Filename.concat dir "cmocd.sock";
      builders = 1;
      queue_max = 8;
      state_dir = Filename.concat dir "state";
      cache_capacity = None;
      trace = None;
    }
  in
  let server = Server.start config in
  let conn = Client.connect ~socket:config.Server.socket in
  let request tag idx =
    {
      Proto.tag;
      level = Options.O4;
      pbo = false;
      jobs = 1;
      check = false;
      fault = None;
      sources = sources states.(idx);
    }
  in
  let send idx = Client.build conn (request (string_of_int idx) idx) in
  let checked = Hashtbl.create 8 in
  (match send 0 with
  | Proto.Built _ -> ()
  | _ -> failwith "edit-daemon: warm-up request failed");
  let requests = ref 0 in
  let step () =
    let k = !requests in
    incr requests;
    let idx, kind = if k < edits then (k + 1, Edit) else ((k - edits) mod (edits + 1), Revisit) in
    let resp, wall, cpu, minor, majors = timed (fun () -> send idx) in
    match resp with
    | Proto.Built { objects; report; _ } ->
      let image =
        match Cmo_link.Linker.link (List.map Objfile.decode objects) with
        | Ok image -> image
        | Error _ -> failwith "edit-daemon: reply objects do not link"
      in
      let ok, cycles = check checked ~state:idx ~input ~expect:(expect idx) image in
      let view =
        match Json.parse report with
        | Ok j -> view_of_json j
        | Error e -> failwith ("edit-daemon: report is not JSON: " ^ e)
      in
      {
        kind;
        state = idx;
        wall;
        cpu;
        minor;
        majors;
        view;
        code_instrs = Array.length image.Image.code;
        cycles;
        ok;
        reply_bytes =
          List.fold_left (fun n o -> n + String.length o) (String.length report) objects;
      }
    | Proto.Rejected { reason; _ } | Proto.Failed { reason; _ } ->
      failwith ("edit-daemon: request failed: " ^ reason)
    | _ -> failwith "edit-daemon: unexpected reply"
  in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Client.close conn;
      Server.shutdown server;
      Server.wait server;
      remove_tree dir
    end
  in
  (* The store's split between writes and reads, from a session
     replaying the same requests in process (the daemon does not expose
     its store), plus the invalidation closure of each edit. *)
  let trace_extra () =
    let st = Client.with_connect ~socket:config.Server.socket Client.stats in
    let sdir = fresh_dir "store" in
    Fun.protect ~finally:(fun () -> remove_tree sdir) @@ fun () ->
    let store = Store.open_ ~dir:sdir () in
    let options = { Options.o4 with Options.jobs = 1 } in
    let acc = Hashtbl.create 16 in
    let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
    let plan =
      List.init (edits + 1) (fun i -> (i, true)) @ [ (0, false); (1, false); (2, false) ]
    in
    List.iter
      (fun (idx, fresh) ->
        let s0 = Store.stats store in
        let b = Pipeline.compile ~cache:store options (sources states.(idx)) in
        let s1 = Store.stats store in
        let side = if fresh then "new" else "revisit" in
        add (side ^ ".hits") (float (s1.Store.hits - s0.Store.hits));
        add (side ^ ".lookups")
          (float (s1.Store.hits - s0.Store.hits + s1.Store.misses - s0.Store.misses));
        let v = view_of_report b.Pipeline.report in
        add "module.hits" (float v.cache_hits);
        add "module.lookups" (float (v.cache_hits + v.cache_misses));
        if fresh && idx > 0 then begin
          add "reoptimized" (float v.reoptimized);
          add "edits" 1.0;
          let changed =
            List.filter_map
              (fun (name, text) ->
                if List.assoc_opt name states.(idx - 1) = Some text then None else Some name)
              states.(idx)
          in
          let part = Invalidate.compute (Pipeline.frontend (sources states.(idx))) in
          add "closure" (float (List.length (Invalidate.closure part ~changed)))
        end)
      plan;
    let s = Store.stats store in
    Store.close store;
    let g k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
    let ratio a b = if b > 0.0 then a /. b else 0.0 in
    let n_edits = max 1.0 (g "edits") in
    let lookups = float (s.Store.hits + s.Store.misses) in
    [
      ("store.hits", float s.Store.hits);
      ("store.misses", float s.Store.misses);
      ("store.lookups", lookups);
      ("store.hit_ratio", ratio (float s.Store.hits) lookups);
      ("store.stores", float s.Store.stores);
      ("store.evictions", float s.Store.evictions);
      ("store.live_mb", float s.Store.live_bytes /. 1e6);
      ("store.new_lookups", g "new.lookups");
      ("store.new_hit_ratio", ratio (g "new.hits") (g "new.lookups"));
      ("store.revisit_lookups", g "revisit.lookups");
      ("store.revisit_hit_ratio", ratio (g "revisit.hits") (g "revisit.lookups"));
      ("cache.module_lookups", g "module.lookups");
      ("cache.module_hit_ratio", ratio (g "module.hits") (g "module.lookups"));
      ("cache.reoptimized_modules", g "reoptimized" /. n_edits);
      ("invalidate.closure_modules", g "closure" /. n_edits);
      ("server.completed", float st.Proto.completed);
      ("server.failed", float st.Proto.failed);
      ("server.rejected", float st.Proto.rejected);
    ]
  in
  {
    step;
    min_samples = edits + revisits;
    trace_samples = edits + 3;
    checked_image = checked_image checked;
    stop;
    deterministic_minor = false;
    staged_options = { Options.o4 with Options.jobs = 1 };
    staged_profile = None;
    staged_listing = states.(0);
    staged_input = input;
    trace_extra;
  }

(* Why each workload: cold-sel20 is the paper's production setting (the
   Fig. 6 knee), where every layer but the store works and every NAIM
   acquire hits; naim64 is the same program under a tight NAIM budget,
   where the loader and the codec do most of the work; edit-daemon is
   the only one that runs the server, Proto and the store, writes
   beside reads; sharded4 is the only one where the parallel placement
   runs, with four independent HLO partitions. *)
let workloads =
  [
    ( "cold-sel20-mcad1",
      fun seed ->
        oneshot ~cfg:mcad1 ~seed ~listing:(Genprog.generate mcad1)
          ~options:{ (Options.o4_pbo_selective 20.0) with Options.jobs = 1 }
          ~pbo:true ~check_j1:false ~min_samples:1 );
    ( "naim64-mcad1",
      fun seed ->
        oneshot ~cfg:mcad1 ~seed ~listing:(Genprog.generate mcad1)
          ~options:
            { Options.o4_pbo with Options.jobs = 1; machine_memory = 64 * 1024 * 1024 }
          ~pbo:true ~check_j1:false ~min_samples:11 );
    ("edit-daemon-mcad1", fun seed -> edit_daemon ~seed);
    ( "sharded4-gcc-j2",
      fun seed ->
        let gcc = Suite.find "gcc" in
        let listing = Genprog.sharded gcc ~shards:4 in
        let cmo = List.filter (fun n -> n <> "main_mod") (List.map fst listing) in
        oneshot ~cfg:gcc ~seed ~listing
          ~options:{ Options.o4 with Options.jobs = 2; cmo_modules = Some cmo }
          ~pbo:false ~check_j1:true ~min_samples:1 );
  ]

(* --- determinism self-check ----------------------------------------- *)

(* Counts that must repeat exactly across builds of the same state:
   image-derived ones per state, report-derived ones per state and
   kind (a store read does less work than a write, by design). *)
let drift ~deterministic_minor samples =
  let problems = ref [] in
  let first = Hashtbl.create 16 in
  let compare_key key what v =
    match Hashtbl.find_opt first (key, what) with
    | None -> Hashtbl.replace first (key, what) v
    | Some v0 ->
      if v0 <> v then
        problems := Printf.sprintf "%s drifted: %d then %d" what v0 v :: !problems
  in
  List.iter
    (fun s ->
      let st = (s.state, None) and sk = (s.state, Some s.kind) in
      compare_key st "run_cycles" s.cycles;
      compare_key st "code_instrs" s.code_instrs;
      List.iter (fun (name, v) -> compare_key sk name v) s.view.counts;
      if deterministic_minor then compare_key sk "gc.minor_words" (int_of_float s.minor))
    samples;
  List.sort_uniq compare !problems

(* --- reporting ------------------------------------------------------- *)

let result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let row name unit v note = Printf.printf "  %-30s %14.6f %-8s %s\n" name v unit note

(* The closed loop: the next request starts when the previous one has
   returned and been checked, until [seconds] have passed and
   [min_samples] requests were made.  Eleven builds give build_s_tail a
   percentile with ten samples beyond it where [seconds] would not. *)
let run_loop env ~seconds =
  let samples = ref [] and failures = ref [] in
  let t0 = now () in
  while now () < t0 +. seconds || List.length !samples < env.min_samples do
    (match env.step () with
    | s -> samples := s :: !samples
    | exception e -> failures := Printexc.to_string e :: !failures);
    if List.length !failures > 3 then failwith (String.concat "; " !failures)
  done;
  (List.rev !samples, List.rev !failures)

let setups = 3

let end_to_end name make ~seed ~seconds =
  (* Set up [setups] times, keep the last; the median is setup_s. *)
  let times = ref [] and env = ref None in
  for _ = 1 to setups do
    Option.iter (fun e -> e.stop ()) !env;
    let t0 = now () in
    env := Some (make seed);
    times := (now () -. t0) :: !times
  done;
  let env = Option.get !env in
  let samples, failures =
    Fun.protect ~finally:env.stop (fun () -> run_loop env ~seconds)
  in
  let bad = List.filter (fun s -> not s.ok) samples in
  let drifts = drift ~deterministic_minor:env.deterministic_minor samples in
  let attempted = List.length samples + List.length failures in
  let failed = List.length bad + List.length failures in
  let walls k = List.filter_map (fun s -> if k s.kind then Some s.wall else None) samples in
  let all = walls (fun _ -> true) in
  let edit, revisit, cacheless =
    match (walls (( = ) Edit), walls (( = ) Revisit)) with
    | [], [] -> (all, all, true)
    | e, r -> (e, r, false)
  in
  let pct, tail_v = tail all in
  (* Run time and code size of the pristine tree (state 0): the storm's
     edits change the program, so a mean over states would move with the
     seed's edit sequence. *)
  let of_state0 f =
    match List.find_opt (fun s -> s.state = 0) samples with Some s -> f s | None -> nan
  in
  let heap = float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) in
  let n = List.length all in
  let metrics =
    [
      ("setup_s", "s", median !times, Printf.sprintf "median of %d set-ups" setups);
      ("build_s_p50", "s", median all, Printf.sprintf "n=%d" n);
      ( "build_s_tail", "s", tail_v,
        if n < 11 then Printf.sprintf "max of n=%d (no percentile has 10 samples beyond it)" n
        else Printf.sprintf "p%d of n=%d (highest percentile with >= 10 samples beyond it)" pct n );
      ("cpu_s_p50", "s", median (List.map (fun s -> s.cpu) samples), Printf.sprintf "n=%d" n);
      ( "edit_s_p50", "s", median edit,
        if cacheless then "cacheless: every build is cold, same samples as build_s_p50"
        else Printf.sprintf "n=%d never-built states" (List.length edit) );
      ( "revisit_s_p50", "s", median revisit,
        if cacheless then "cacheless: same samples as build_s_p50"
        else Printf.sprintf "n=%d already-built states" (List.length revisit) );
      ( "peak_model_mb", "MB",
        float (List.fold_left (fun m s -> max m s.view.peak) 0 samples) /. 1e6,
        "report.mem_peak, largest request" );
      ("heap_top_mb", "MB", heap /. 1e6, "Gc top_heap_words at the end of the run");
      ( "run_mcycles", "Mcycles",
        of_state0 (fun s -> float s.cycles /. 1e6),
        "state 0, reference input" );
      ( "code_kinstrs", "kinstrs",
        of_state0 (fun s -> float s.code_instrs /. 1000.0),
        "state 0, linked image" );
    ]
  in
  let fail_rate = float failed /. float (max 1 attempted) in
  Printf.printf "workload %s, seed %d: closed loop, 1 caller, %d builds in the timed loop\n"
    name seed attempted;
  List.iter (fun (n, u, v, note) -> row n u v note) metrics;
  row "fail_rate" "ratio" fail_rate (Printf.sprintf "%d of %d attempted" failed attempted);
  Printf.printf "  build walls (s, sorted):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.3f") (sorted all)));
  List.iter (Printf.printf "  FAILURE: %s\n") failures;
  List.iter (Printf.printf "  DRIFT: %s\n") drifts;
  if bad <> [] then Printf.printf "  OUTPUT MISMATCH in %d builds\n" (List.length bad);
  let correct = failed = 0 && drifts = [] in
  result ~correct ~attempted ~failed (List.map (fun (n, u, v, _) -> (n, u, v)) metrics);
  correct

(* --- the traced run --------------------------------------------------- *)

let traced name make ~seed =
  let env = make seed in
  Fun.protect ~finally:env.stop @@ fun () ->
  (* The workload's own builds, untraced: driver, gc and server rows
     come from their public reports. *)
  let samples = List.init env.trace_samples (fun _ -> env.step ()) in
  let bad = List.filter (fun s -> not s.ok) samples in
  let drifts = drift ~deterministic_minor:env.deterministic_minor samples in
  let med f = median (List.map f samples) in
  let unattributed s =
    s.wall -. (s.view.fe_wall +. s.view.hlo_wall +. s.view.llo_wall +. s.view.link_cpu)
  in
  (* Untraced one-shot builds with the staged options: the reference
     image the staged build must reproduce, and the untraced wall the
     tracing overhead is taken against. *)
  let srcs = sources env.staged_listing in
  let refs =
    List.init 2 (fun _ ->
        let b, wall, _, _, _ =
          timed (fun () -> Pipeline.compile ?profile:env.staged_profile env.staged_options srcs)
        in
        (b, wall))
  in
  let ref_build = fst (List.hd refs) in
  let ref_wall = median (List.map snd refs) in
  (* HLO wall the NAIM budget costs: the same build at the default
     machine memory, where every acquire hits, against the workload's. *)
  let budget_hlo_s =
    let default_mem = Cmo_naim.Loader.default_config.Cmo_naim.Loader.machine_memory in
    if env.staged_options.Options.machine_memory = default_mem then 0.0
    else
      let unbudgeted =
        Pipeline.compile ?profile:env.staged_profile
          { env.staged_options with Options.machine_memory = default_mem }
          srcs
      in
      median (List.map (fun (b, _) -> b.Pipeline.report.Pipeline.hlo_wall_seconds) refs)
      -. unbudgeted.Pipeline.report.Pipeline.hlo_wall_seconds
  in
  let t0 = now () in
  let st = Staged.build ?profile:env.staged_profile env.staged_options srcs in
  let staged_wall = now () -. t0 in
  (* The staged image on the VM: the vm row, and its cycles must equal
     the timed builds' for the same state. *)
  let t_vm = now () in
  let staged_cycles = (Vm.run ~input:env.staged_input st.Staged.image).Vm.cycles in
  let vm_run_s = now () -. t_vm in
  let mismatches =
    List.filter_map
      (fun (what, ok) -> if ok then None else Some what)
      [
        ( "staged image differs from Pipeline.compile's",
          st.Staged.image = ref_build.Pipeline.image );
        ( "staged image differs from the timed builds'",
          env.checked_image 0 = Some st.Staged.image );
        ( "staged image's VM cycles differ from the timed builds'",
          List.for_all (fun s -> s.state <> 0 || s.cycles = staged_cycles) samples );
        ( "staged modeled peak differs",
          st.Staged.mem_peak = ref_build.Pipeline.report.Pipeline.mem_peak );
        ( "staged loader stats differ",
          st.Staged.loader_stats = ref_build.Pipeline.report.Pipeline.loader_stats );
        ("staged LLO stats differ", st.Staged.llo = ref_build.Pipeline.report.Pipeline.llo);
      ]
  in
  (* Drills: the pass ladder over the CMO set's functions as HLO
     receives them, and the codec over every function. *)
  let drill_modules = Pipeline.frontend srcs in
  (match (env.staged_options.Options.pbo, env.staged_profile) with
  | true, Some db -> ignore (Cmo_profile.Correlate.annotate db drill_modules)
  | _ -> ());
  let t_inv = now () in
  ignore (Staged.span "invalidate.compute" (fun () -> Invalidate.compute drill_modules));
  let invalidate_s = now () -. t_inv in
  let cmo_funcs =
    List.concat_map
      (fun (m : Cmo_il.Ilmod.t) ->
        if List.mem m.Cmo_il.Ilmod.mname st.Staged.cmo_modules then m.Cmo_il.Ilmod.funcs else [])
      drill_modules
  in
  let passes = Staged.pass_drill cmo_funcs in
  let enc_s, dec_s, codec_bytes = Staged.codec_drill drill_modules in
  let self = Staged.self_times () in
  let t n = Staged.self_time self n in
  let lstat f = match st.Staged.loader_stats with Some s -> float (f s) | None -> 0.0 in
  let acquires = lstat (fun s -> s.Cmo_naim.Loader.acquires) in
  let inline f = match st.Staged.inline_stats with Some s -> float (f s) | None -> 0.0 in
  let ipa f = match st.Staged.ipa_stats with Some s -> float (f s) | None -> 0.0 in
  let cpu_sum = med (fun s -> s.view.phase_cpu) and wall_sum = med (fun s -> s.view.phase_wall) in
  let extra = env.trace_extra () in
  let x name = Option.value ~default:0.0 (List.assoc_opt name extra) in
  let is_daemon = extra <> [] in
  let llo = st.Staged.llo in
  let layer =
    [
      ("frontend.parse_s", "s", t "frontend.parse");
      ("frontend.sema_s", "s", t "frontend.sema");
      ("frontend.lower_s", "s", t "frontend.lower");
      ("frontend.minor_mwords", "Mwords", st.Staged.frontend_minor_words /. 1e6);
      ("correlate.annotate_s", "s", t "correlate.annotate");
      ("selectivity.select_s", "s", t "selectivity.select");
      ("clone.s", "s", t "clone");
      ("clone.count", "count", float st.Staged.clones);
      ("inline.s", "s", t "inline");
      ("inline.ops", "count", inline (fun s -> s.Cmo_hlo.Inline.operations));
      ("inline.cross_module", "count", inline (fun s -> s.Cmo_hlo.Inline.cross_module));
      ("ipa.s", "s", t "ipa");
      ("ipa.const_params", "count", ipa (fun s -> s.Cmo_hlo.Ipa.const_params));
      ("ipa.dead_funcs", "count", ipa (fun s -> List.length s.Cmo_hlo.Ipa.dead_functions));
      ("phase.s", "s", t "phase");
      ("phase.funcs", "count", float st.Staged.phase_funcs);
      ("phase.rewrites", "count", float st.Staged.phase_rewrites);
      ("phase.outside_s", "s", t "phase.outside");
    ]
    @ List.concat_map
        (fun (p, s, n) ->
          [ ("pass." ^ p ^ ".s", "s", s); ("pass." ^ p ^ ".rewrites", "count", float n) ])
        passes
    @ [
        ("loader.register_s", "s", t "loader.register");
        ("loader.acquire_s", "s", t "loader.acquire");
        ("loader.release_s", "s", t "loader.release");
        ("loader.update_s", "s", t "loader.update");
        ("loader.unload_s", "s", t "loader.unload");
        ("loader.budget_hlo_s", "s", budget_hlo_s);
        ("loader.acquires", "count", acquires);
        ( "loader.hit_ratio", "ratio",
          if acquires > 0.0 then lstat (fun s -> s.Cmo_naim.Loader.cache_hits) /. acquires
          else 0.0 );
        ("loader.uncompactions", "count", lstat (fun s -> s.Cmo_naim.Loader.uncompactions));
        ("loader.compactions", "count", lstat (fun s -> s.Cmo_naim.Loader.compactions));
        ("loader.offloads", "count", lstat (fun s -> s.Cmo_naim.Loader.offloads));
        ( "loader.symtab_compactions", "count",
          lstat (fun s -> s.Cmo_naim.Loader.symtab_compactions) );
        ("ilcodec.encode_s", "s", enc_s);
        ("ilcodec.decode_s", "s", dec_s);
        ("ilcodec.bytes", "bytes", float codec_bytes);
        ("hlo.staged_s", "s", Staged.total_time "stage.hlo");
      ]
    @ List.map
        (fun k ->
          let unit =
            if String.ends_with ~suffix:"_mb" k then "MB"
            else if String.ends_with ~suffix:"ratio" k then "ratio"
            else "count"
          in
          (k, unit, x k))
        [
          "store.hits"; "store.misses"; "store.stores"; "store.evictions"; "store.live_mb";
          "store.lookups"; "store.hit_ratio"; "store.new_lookups"; "store.new_hit_ratio";
          "store.revisit_lookups"; "store.revisit_hit_ratio"; "cache.module_lookups";
          "cache.module_hit_ratio"; "cache.reoptimized_modules";
        ]
    @ [
        ("invalidate.compute_s", "s", invalidate_s);
        ("invalidate.closure_modules", "count", x "invalidate.closure_modules");
        ("layout.s", "s", t "layout");
        ("isel.s", "s", t "isel");
        ("sched.s", "s", t "sched");
        ("regalloc.s", "s", t "regalloc");
        ("peephole.s", "s", t "peephole");
        ("codegen.s", "s", t "codegen");
        ("llo.spilled_vregs", "count", float llo.Cmo_llo.Llo.spilled_vregs);
        ("llo.peephole_rewrites", "count", float llo.Cmo_llo.Llo.peephole_rewrites);
        ("llo.mach_instrs", "count", float llo.Cmo_llo.Llo.mach_instrs);
        ("cluster.order_s", "s", t "cluster.order");
        ("linker.link_s", "s", t "linker.link");
        ("pipeline.frontend_wall_s", "s", med (fun s -> s.view.fe_wall));
        ("pipeline.hlo_wall_s", "s", med (fun s -> s.view.hlo_wall));
        ("pipeline.llo_wall_s", "s", med (fun s -> s.view.llo_wall));
        ("pipeline.link_s", "s", med (fun s -> s.view.link_cpu));
        ("pipeline.unattributed_s", "s", med unattributed);
        ("pipeline.cpu_sum_s", "s", cpu_sum);
        ("pipeline.wall_sum_s", "s", wall_sum);
        ("pipeline.cpu_over_wall", "ratio", if wall_sum > 0.0 then cpu_sum /. wall_sum else 1.0);
        ( "server.overhead_s", "s",
          if is_daemon then med unattributed else 0.0 );
        ( "proto.reply_mb", "MB",
          if is_daemon then mean (List.map (fun s -> float s.reply_bytes) samples) /. 1e6
          else 0.0 );
        ("server.completed", "count", x "server.completed");
        ("server.failed", "count", x "server.failed");
        ("server.rejected", "count", x "server.rejected");
        ("gc.minor_mwords", "Mwords", med (fun s -> s.minor) /. 1e6);
        ("gc.major_collections", "count", med (fun s -> float s.majors));
        ("vm.run_s", "s", vm_run_s);
        ("trace.overhead_s", "s", staged_wall -. ref_wall);
      ]
  in
  Printf.printf "workload %s, seed %d: traced run (%d untraced builds, 1 staged build)\n" name seed
    (List.length samples);
  List.iter (fun (n, u, v) -> row n u v "") layer;
  Printf.printf
    "  bases: loader.hit_ratio of %.0f acquires; store.hit_ratio of %.0f lookups \
     (new states %.0f, revisits %.0f); cache.module_hit_ratio of %.0f lookups; \
     pipeline.cpu_over_wall = %.4f s cpu / %.4f s wall; loader.budget_hlo_s of \
     %.4f s pipeline.hlo_wall_s\n"
    acquires (x "store.lookups") (x "store.new_lookups") (x "store.revisit_lookups")
    (x "cache.module_lookups") cpu_sum wall_sum (med (fun s -> s.view.hlo_wall));
  List.iter (Printf.printf "  MISMATCH: %s\n") mismatches;
  List.iter (Printf.printf "  DRIFT: %s\n") drifts;
  if bad <> [] then Printf.printf "  OUTPUT MISMATCH in %d builds\n" (List.length bad);
  (try
     Staged.write_spans
       (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" name seed))
   with Sys_error e -> Printf.printf "  (spans not written: %s)\n" e);
  let failed = List.length bad + List.length mismatches in
  let correct = failed = 0 && drifts = [] in
  result ~correct ~attempted:(List.length samples + 1) ~failed layer;
  correct

(* --- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (0 = the Suite personality's inputs)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let correct =
    if !trace = 0 then end_to_end !workload make ~seed:!seed ~seconds:(float !seconds)
    else traced !workload make ~seed:!seed
  in
  exit (if correct then 0 else 1)
