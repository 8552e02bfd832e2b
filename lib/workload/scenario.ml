type mount = Datagram | Transport of Urcgc.Medium.h_policy

type t = {
  name : string;
  config : Urcgc.Config.t;
  load : Load.t;
  fault : Net.Fault.spec;
  mount : mount;
  latency : Net.Netsim.latency option;
  codec_boundary : bool;
  seed : int;
  max_rtd : float;
}

let make ?(name = "scenario") ?(fault = Net.Fault.reliable) ?(mount = Datagram)
    ?latency ?(codec_boundary = false) ?(seed = 42) ?(max_rtd = 400.0) ~config
    ~load () =
  if max_rtd <= 0.0 then invalid_arg "Scenario.make: max_rtd must be positive";
  {
    name;
    config;
    load;
    fault;
    mount;
    latency;
    codec_boundary;
    seed;
    max_rtd;
  }

let crash_at_subrun t node ~subrun =
  if subrun < 0 then invalid_arg "Scenario.crash_at_subrun: negative subrun";
  let time = Sim.Ticks.of_int ((subrun * Sim.Ticks.per_rtd) + 1) in
  { t with fault = { t.fault with crashes = (node, time) :: t.fault.crashes } }
