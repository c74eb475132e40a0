(* The traced build: one build re-driven stage by stage through the
   public entry points of each layer, with a benchmark-side span around
   every call.  Mirrors the uncached, sequential ([jobs] = 1) path of
   [Pipeline.compile] — frontend, profile annotation, selectivity, the
   default-level treatment outside the CMO set, link-time CMO over a
   NAIM loader (clone, inline, IPA, then the per-routine phase loop
   driven from here so the loader is timed), LLO routine by routine,
   clustering and link — so the staged image must be byte-identical to
   the one-shot build's; the caller checks that it is. *)

open Cmo_il
module Pipeline = Cmo_driver.Pipeline
module Options = Cmo_driver.Options
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Hlo = Cmo_hlo.Hlo
module Phase = Cmo_hlo.Phase
module Inline = Cmo_hlo.Inline
module Ipa = Cmo_hlo.Ipa
module Clone = Cmo_hlo.Clone
module Selectivity = Cmo_hlo.Selectivity

(* --- spans, kept in memory and written out at exit ----------------- *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 at the root. *)
  build : int;
}

let recorded : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let build_id = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      open_spans := List.tl !open_spans;
      recorded := { id; name; start; stop; parent; build = !build_id } :: !recorded)
    f

let new_build () = incr build_id

(* Self time by span name: each span's duration minus the time its
   direct children cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name)))
    !recorded;
  by_name

let total_time name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 !recorded

let self_time tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let write_spans path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"build\":%d}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.start s.stop s.parent s.build)
    (List.rev !recorded);
  output_string oc "]\n"

(* --- the staged build ---------------------------------------------- *)

type result = {
  image : Cmo_link.Image.t;
  loader_stats : Loader.stats option;
  clones : int;
  inline_stats : Inline.stats option;
  ipa_stats : Ipa.stats option;
  phase_funcs : int;
  phase_rewrites : int;
  llo : Cmo_llo.Llo.stats;
  mem_peak : int;
  cmo_modules : string list;
  frontend_minor_words : float;
}

let fail fmt = Printf.ksprintf failwith fmt

let frontend sources =
  let modules =
    List.map
      (fun { Pipeline.name; text } ->
        let ast =
          span "frontend.parse" (fun () ->
              Cmo_frontend.Parser.parse ~module_name:name text)
        in
        let resolved =
          span "frontend.sema" (fun () ->
              match Cmo_frontend.Sema.analyze ast with
              | Ok r -> r
              | Error _ -> fail "sema rejected %s" name)
        in
        let m =
          span "frontend.lower" (fun () -> Cmo_frontend.Lower.lower_unit resolved)
        in
        span "frontend.verify" (fun () ->
            if Verify.check_module m <> [] then fail "IL of %s fails verification" name);
        m)
      sources
  in
  span "frontend.verify" (fun () ->
      if Verify.check_program modules <> [] then fail "program IL fails verification");
  modules

(* The pipeline's external-context scan: what code outside the CMO set
   calls into it and stores into. *)
let external_context outside =
  let called = Hashtbl.create 64 and stored = Hashtbl.create 64 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (b : Func.block) ->
              List.iter
                (function
                  | Instr.Call { callee; _ } -> Hashtbl.replace called callee ()
                  | Instr.Store ({ Instr.base; _ }, _) -> Hashtbl.replace stored base ()
                  | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
                  | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks)
        m.Ilmod.funcs)
    outside;
  (called, stored)

(* Dynamic call weights for routine clustering, as the pipeline derives
   them from annotated IL. *)
let cluster_weights modules =
  let weights = Hashtbl.create 256 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (_, (c : Instr.call)) ->
              if (not (Intrinsics.is_intrinsic c.Instr.callee)) && c.Instr.call_count > 0.0
              then begin
                let key = (f.Func.name, c.Instr.callee) in
                Hashtbl.replace weights key
                  (c.Instr.call_count
                  +. Option.value ~default:0.0 (Hashtbl.find_opt weights key))
              end)
            (Func.site_calls f))
        m.Ilmod.funcs)
    modules;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights [] |> List.sort compare

(* Link-time CMO over [cmo_set], as [Distwork.optimize_subset] and
   [Hlo.run] do it, with the phase loop driven from here. *)
let optimize_cmo_set ~(options : Options.t) ~mem ~hot_filter ~called ~stored cmo_set =
  let cg = Callgraph.build cmo_set in
  let main_in_set =
    List.exists
      (fun (m : Ilmod.t) -> List.exists (fun f -> f.Func.name = "main") m.Ilmod.funcs)
      cmo_set
  in
  let config =
    {
      Loader.default_config with
      Loader.machine_memory = options.Options.machine_memory;
      forced_level = options.Options.naim_level;
    }
  in
  let loader = Loader.create config mem in
  span "loader.register" (fun () -> List.iter (Loader.register_module loader) cmo_set);
  let ipa_context =
    {
      Ipa.externally_called = Hashtbl.mem called;
      externally_stored = Hashtbl.mem stored;
      entry = (if main_in_set then Some "main" else None);
      keep_exported = true;
    }
  in
  let base = Hlo.o4_options ~profile:options.Options.pbo in
  let inline_config =
    let c =
      match (options.Options.inline_config, base.Hlo.inline) with
      | Some c, _ | None, Some c -> c
      | None, None -> Inline.default_config
    in
    { c with Inline.operation_limit = options.Options.inline_limit }
  in
  let clones =
    match base.Hlo.clone with
    | Some c -> span "clone" (fun () -> Clone.run loader cg c)
    | None -> 0
  in
  let inline_stats = span "inline" (fun () -> Inline.run loader cg inline_config) in
  let ipa_stats =
    if base.Hlo.ipa then Some (span "ipa" (fun () -> Ipa.run loader ipa_context))
    else None
  in
  let budget = Phase.unlimited () in
  let lmem = Loader.memstats loader in
  let funcs = ref 0 and rewrites = ref 0 in
  List.iter
    (fun fname ->
      if match hot_filter with Some hot -> hot fname | None -> true then begin
        incr funcs;
        let f = span "loader.acquire" (fun () -> Loader.acquire loader fname) in
        let n = span "phase" (fun () -> Phase.optimize_func ~mem:lmem ~budget f) in
        rewrites := !rewrites + n;
        span "loader.update" (fun () -> Loader.update loader f);
        span "loader.release" (fun () -> Loader.release loader fname)
      end)
    (Loader.func_names loader);
  span "loader.unload" (fun () -> Loader.unload_all loader);
  let optimized = span "loader.extract" (fun () -> Loader.extract_modules loader) in
  let lstats = Loader.stats loader in
  Loader.close loader;
  (optimized, lstats, clones, inline_stats, ipa_stats, !funcs, !rewrites)

let llo_module ~mem ~layout (acc : Cmo_llo.Llo.stats ref) (m : Ilmod.t) =
  let module_name = m.Ilmod.mname in
  let codes =
    List.map
      (fun f ->
        let layout_changed = layout && span "layout" (fun () -> Cmo_llo.Layout.run f) in
        let vc = span "isel" (fun () -> Cmo_llo.Isel.select ~module_name f) in
        span "sched" (fun () -> ignore (Cmo_llo.Sched.run vc));
        let mach_count =
          List.fold_left
            (fun n (b : Cmo_llo.Isel.vblock) -> n + List.length b.Cmo_llo.Isel.body + 1)
            0 vc.Cmo_llo.Isel.vblocks
        in
        let bytes = Cmo_llo.Llo.modeled_llo_bytes mach_count in
        Memstats.charge mem Memstats.Llo bytes;
        let ra = span "regalloc" (fun () -> Cmo_llo.Regalloc.run vc) in
        let peeps = span "peephole" (fun () -> Cmo_llo.Peephole.run ra.Cmo_llo.Regalloc.vcode) in
        let code = span "codegen" (fun () -> Cmo_llo.Codegen.emit ra) in
        Memstats.release mem Memstats.Llo bytes;
        let s = !acc in
        acc :=
          {
            Cmo_llo.Llo.routines = s.Cmo_llo.Llo.routines + 1;
            mach_instrs = s.mach_instrs + Array.length code.Cmo_llo.Mach.code;
            spilled_vregs = s.spilled_vregs + ra.Cmo_llo.Regalloc.spilled_vregs;
            peephole_rewrites = s.peephole_rewrites + peeps;
            layout_changes = (s.layout_changes + if layout_changed then 1 else 0);
          };
        code)
      m.Ilmod.funcs
  in
  Cmo_link.Objfile.of_code ~module_name ~globals:m.Ilmod.globals ~source_digest:"" codes

let build ?profile (options : Options.t) sources =
  if options.Options.level <> Options.O4 || options.Options.tiered then
    invalid_arg "Staged.build: only untiered O4 builds are staged";
  new_build ();
  let minor0 = Gc.minor_words () in
  let modules = span "stage.frontend" (fun () -> frontend sources) in
  let frontend_minor_words = Gc.minor_words () -. minor0 in
  let pbo = options.Options.pbo in
  let mem = Memstats.create () in
  let processed, cmo_names, lstats, clones, inline_stats, ipa_stats, funcs, rewrites =
    span "stage.hlo" @@ fun () ->
    (match (pbo, profile) with
    | true, Some db ->
      span "correlate.annotate" (fun () ->
          ignore (Cmo_profile.Correlate.annotate db modules))
    | _ -> Cmo_profile.Correlate.clear modules);
    let in_set names (m : Ilmod.t) = List.mem m.Ilmod.mname names in
    let cmo_set, outside, selection =
      match (options.Options.cmo_modules, options.Options.selectivity) with
      | Some names, _ ->
        let s, o = List.partition (in_set names) modules in
        (s, o, None)
      | None, Some percent when pbo ->
        let sel = span "selectivity.select" (fun () -> Selectivity.select ~percent modules) in
        let s, o = List.partition (in_set sel.Selectivity.cmo_modules) modules in
        (s, o, Some sel)
      | None, _ -> (modules, [], None)
    in
    (* The default-level path outside the CMO set. *)
    List.iter
      (fun (m : Ilmod.t) ->
        List.iter
          (fun f -> ignore (span "phase.outside" (fun () -> Phase.optimize_func ~mem f)))
          m.Ilmod.funcs)
      outside;
    let cmo_names = List.map (fun (m : Ilmod.t) -> m.Ilmod.mname) cmo_set in
    if cmo_set = [] then (outside, cmo_names, None, 0, None, None, 0, 0)
    else begin
      let called, stored = span "wpa.context" (fun () -> external_context outside) in
      let hot_filter =
        Option.map (fun sel name -> Selectivity.is_hot_function sel name) selection
      in
      let optimized, lstats, clones, inl, ipa, funcs, rewrites =
        optimize_cmo_set ~options ~mem ~hot_filter ~called ~stored cmo_set
      in
      (optimized @ outside, cmo_names, Some lstats, clones, Some inl, ipa, funcs, rewrites)
    end
  in
  let acc =
    ref
      {
        Cmo_llo.Llo.routines = 0;
        mach_instrs = 0;
        spilled_vregs = 0;
        peephole_rewrites = 0;
        layout_changes = 0;
      }
  in
  let objects =
    span "stage.llo" (fun () -> List.map (llo_module ~mem ~layout:pbo acc) processed)
  in
  let image =
    span "stage.link" @@ fun () ->
    let routine_order =
      if pbo then
        match cluster_weights processed with
        | [] -> None
        | weights ->
          let names =
            List.concat_map
              (fun (m : Ilmod.t) -> List.map (fun f -> f.Func.name) m.Ilmod.funcs)
              processed
          in
          Some (span "cluster.order" (fun () -> Cmo_link.Cluster.order ~names ~weights))
      else None
    in
    span "linker.link" (fun () ->
        match Cmo_link.Linker.link ?routine_order objects with
        | Ok image -> image
        | Error _ -> fail "staged link failed")
  in
  {
    image;
    loader_stats = lstats;
    clones;
    inline_stats;
    ipa_stats;
    phase_funcs = funcs;
    phase_rewrites = rewrites;
    llo = !acc;
    mem_peak = Memstats.peak mem;
    cmo_modules = cmo_names;
    frontend_minor_words;
  }

(* --- drills -------------------------------------------------------- *)

(* Each [Phase.passes] entry applied once, in order, to a copy of every
   function of [funcs]: (pass name, seconds, rewrites). *)
let pass_drill funcs =
  let copies = List.map Ilcodec.roundtrip_func funcs in
  List.map
    (fun (name, pass) ->
      let n = ref 0 in
      let t0 = Unix.gettimeofday () in
      span ("pass." ^ name) (fun () -> List.iter (fun f -> n := !n + pass f) copies);
      (name, Unix.gettimeofday () -. t0, !n))
    Phase.passes

(* [Ilcodec.encode_func] then [decode_func] over every function, one
   name table per module: (encode s, decode s, encoded bytes). *)
let codec_drill (modules : Ilmod.t list) =
  let enc = ref 0.0 and dec = ref 0.0 and bytes = ref 0 in
  List.iter
    (fun (m : Ilmod.t) ->
      let names = Cmo_support.Intern.create () in
      let t0 = Unix.gettimeofday () in
      let encoded =
        span "ilcodec.encode" (fun () ->
            List.map (Ilcodec.encode_func ~names) m.Ilmod.funcs)
      in
      let t1 = Unix.gettimeofday () in
      span "ilcodec.decode" (fun () ->
          List.iter (fun s -> ignore (Ilcodec.decode_func ~names s)) encoded);
      let t2 = Unix.gettimeofday () in
      enc := !enc +. (t1 -. t0);
      dec := !dec +. (t2 -. t1);
      List.iter (fun s -> bytes := !bytes + String.length s) encoded)
    modules;
  (!enc, !dec, !bytes)
