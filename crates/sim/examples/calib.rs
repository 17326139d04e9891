use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_dnn::zoo;
use codesign_sim::{SimError, SimOptions, Simulator};

fn main() -> Result<(), SimError> {
    let sim = Simulator::new();
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let em = EnergyModel::default();
    println!(
        "{:<20} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7}",
        "network", "hyb_cyc", "vsOS", "vsWS", "E_vsOS", "E_vsWS", "dramE%", "fc_cyc%"
    );
    for net in zoo::table_networks() {
        let hyb = sim.try_simulate_network(&net, &cfg, DataflowPolicy::PerLayer, opts)?;
        let ws = sim.try_simulate_network(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::WeightStationary),
            opts,
        )?;
        let os = sim.try_simulate_network(
            &net,
            &cfg,
            DataflowPolicy::Fixed(Dataflow::OutputStationary),
            opts,
        )?;
        let e_h = hyb.total_energy(&em);
        let e_w = ws.total_energy(&em);
        let e_o = os.total_energy(&em);
        let fc_frac = hyb.cycle_fraction(|l| l.name.starts_with("fc"));
        println!(
            "{:<20} {:>10} {:>8.2} {:>8.2} {:>7.0}% {:>7.0}% {:>6.0}% {:>6.0}%",
            net.name(),
            hyb.total_cycles(),
            os.total_cycles() as f64 / hyb.total_cycles() as f64,
            ws.total_cycles() as f64 / hyb.total_cycles() as f64,
            100.0 * (1.0 - e_h / e_o),
            100.0 * (1.0 - e_h / e_w),
            100.0 * hyb.total_accesses().dram as f64 * em.dram / e_h,
            100.0 * fc_frac
        );
    }
    // headline: SqueezeNext vs SqueezeNet v1.0 and AlexNet on hybrid
    let sq =
        sim.try_simulate_network(&zoo::squeezenet_v1_0(), &cfg, DataflowPolicy::PerLayer, opts)?;
    let sx = sim.try_simulate_network(&zoo::squeezenext(), &cfg, DataflowPolicy::PerLayer, opts)?;
    let ax = sim.try_simulate_network(&zoo::alexnet(), &cfg, DataflowPolicy::PerLayer, opts)?;
    println!(
        "\nSqNxt vs SqNet1.0: speed {:.2}x energy {:.2}x",
        sq.total_cycles() as f64 / sx.total_cycles() as f64,
        sq.total_energy(&em) / sx.total_energy(&em)
    );
    println!(
        "SqNxt vs AlexNet:  speed {:.2}x energy {:.2}x",
        ax.total_cycles() as f64 / sx.total_cycles() as f64,
        ax.total_energy(&em) / sx.total_energy(&em)
    );
    Ok(())
}
