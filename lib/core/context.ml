type t = {
  kernel : Kernel.t;
  cfg : Config.t;
  self : Ids.pid;
  env : Env.t;
  health : Health.t option;
  placement : Placement.t;
}

let make ?health ?placement ~kernel ~cfg ~self ~env () =
  let placement =
    match placement with Some p -> p | None -> Placement.of_config cfg
  in
  { kernel; cfg; self; env; health; placement }

let with_env t env = { t with env }
let kernel t = t.kernel
let self t = t.self
let env t = t.env
let health t = t.health
let placement t = t.placement
