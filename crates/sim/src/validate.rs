//! Validation of a (network, accelerator) pair.
//!
//! The CLI runs [`validate_network`] before it simulates, and `codesign
//! serve` runs it before any answer other than `done`, so degenerate
//! inputs surface as a typed diagnostic naming the first offending
//! layer. The checks run in this order:
//!
//! 1. **configuration sanity** — the accelerator must have PEs and a
//!    non-empty working buffer;
//! 2. **per-layer workload sanity** — zero/absurd dimensions, kernels
//!    larger than their input, element counts beyond the 64-bit modeling
//!    range ([`crate::ConvWork::validate`]);
//! 3. **buffer feasibility** — the smallest candidate tile of every
//!    PE-array layer must fit the working buffer
//!    ([`crate::SimError::InfeasibleTiling`] otherwise);
//! 4. **path support** — every layer must have a model on the path that
//!    will execute it (PE array for conv/FC, SIMD for the rest; this is
//!    total today, so step 4 cannot fail for builder-produced networks
//!    but guards hand-constructed layers).
//!
//! The same checks run lazily inside the `try_*` simulation APIs, which
//! stop at the layer they fail on; validating up front finds the first
//! offending layer in network order whatever else would stop a run.

use codesign_arch::AcceleratorConfig;
use codesign_dnn::{Layer, Network};

use crate::error::{SimError, SimResult};
use crate::tiling::min_working_set;
use crate::workload::ConvWork;

fn validate_config(cfg: &AcceleratorConfig) -> SimResult<()> {
    if cfg.array_size() == 0 {
        return Err(SimError::invalid("accelerator has a 0x0 PE array"));
    }
    if cfg.bytes_per_element() == 0 {
        return Err(SimError::invalid("element width is zero bytes"));
    }
    if cfg.working_buffer_bytes() == 0 {
        return Err(SimError::invalid("working buffer holds zero bytes"));
    }
    Ok(())
}

/// Validates one layer against one configuration: workload sanity plus
/// buffer feasibility for PE-array layers.
///
/// # Errors
///
/// The first failing check's [`SimError`], attributed to the layer.
fn validate_layer(layer: &Layer, cfg: &AcceleratorConfig) -> SimResult<()> {
    let check = || -> SimResult<()> {
        match ConvWork::from_layer(layer) {
            Some(work) => {
                work.validate()?;
                let need = min_working_set(&work, cfg)?;
                let budget = cfg.working_buffer_bytes() as u64;
                if need > budget {
                    return Err(SimError::InfeasibleTiling {
                        layer: None,
                        working_set: need,
                        buffer: budget,
                    });
                }
                Ok(())
            }
            // Non-PE layers take the SIMD path, which models every
            // remaining `LayerOp`; nothing shape-dependent can
            // overflow there below the already-checked element counts.
            None => Ok(()),
        }
    };
    check().map_err(|e| e.for_layer(&layer.name))
}

/// Validates every layer of `network` against `cfg`, stopping at the
/// first problem.
///
/// # Errors
///
/// The first failing check's [`SimError`], attributed to the offending
/// layer (configuration-level errors carry no layer name).
pub fn validate_network(network: &Network, cfg: &AcceleratorConfig) -> SimResult<()> {
    validate_config(cfg)?;
    for layer in network.layers() {
        validate_layer(layer, cfg)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::{zoo, NetworkBuilder, Shape};

    #[test]
    fn paper_workloads_all_validate() {
        let cfg = AcceleratorConfig::paper_default();
        for net in [zoo::squeezenet_v1_0(), zoo::mobilenet_v1(), zoo::alexnet()] {
            assert_eq!(validate_network(&net, &cfg), Ok(()), "{}", net.name());
        }
    }

    #[test]
    fn tiny_buffer_fails_feasibility_with_layer_name() {
        let cfg = AcceleratorConfig::builder()
            .array_size(2)
            .global_buffer_bytes(64)
            .double_buffering(false)
            .build()
            .unwrap();
        let net = zoo::squeezenet_v1_0();
        let err = validate_network(&net, &cfg).unwrap_err();
        assert!(matches!(err, SimError::InfeasibleTiling { .. }), "{err}");
        assert!(err.layer().is_some(), "feasibility errors name their layer");
    }

    #[test]
    fn small_network_on_default_config_is_feasible() {
        let net = NetworkBuilder::new("t", Shape::new(8, 16, 16))
            .conv("c", 16, 3, 1, 1)
            .max_pool("p", 2, 2)
            .fully_connected("fc", 10)
            .finish()
            .unwrap();
        assert_eq!(validate_network(&net, &AcceleratorConfig::paper_default()), Ok(()));
    }
}
