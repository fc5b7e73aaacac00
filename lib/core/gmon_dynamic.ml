let run ?crosstalk_distance ?max_colors ?conflict_threshold ?(residual_coupling = 0.0) device
    circuit =
  let schedule, stats =
    Color_dynamic.run ?crosstalk_distance ?max_colors ?conflict_threshold device circuit
  in
  ( {
      schedule with
      Schedule.algorithm = "gmon-dynamic";
      coupler = Schedule.Tunable_coupler residual_coupling;
    },
    stats )

let scheduler : Pass.scheduler =
  (module struct
    let name = "gmon-dynamic"

    let aliases = [ "gmondynamic"; "gd" ]

    let table1 = false

    let consumes = `Native

    let schedule (options : Pass.options) device native =
      let schedule, stats =
        run ~crosstalk_distance:options.Pass.crosstalk_distance
          ~max_colors:options.Pass.max_colors
          ~conflict_threshold:options.Pass.conflict_threshold
          ~residual_coupling:options.Pass.residual_coupling device native
      in
      (schedule, Color_dynamic.pass_stats stats)
  end)
