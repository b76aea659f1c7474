//! [`ObsModule`]: the observability control-plane RPC surface.
//!
//! Wraps a [`FlightRecorder`] and an optional [`SloEngine`] behind the
//! standard module interface, so operators (and tests) drive the
//! recorder the same way they drive stats, quota, or trace modules:
//!
//! * `sample` — force one sample pass now (e.g. right before a dump).
//! * `series` — the recorder's deterministic time-series JSON.
//! * `alerts` — the SLO engine's alert-transition JSON (`[]` when no
//!   engine is attached).
//!
//! Control-plane rule: every failure degrades into a typed
//! [`ControlError`]; the lint header in `lib.rs` (no unwrap/expect/
//! panic) is enforced by clippy across this crate's non-test code.

use std::cell::RefCell;
use std::rc::Rc;

use snap_core::module::{ControlCx, ControlError, Module};

use crate::recorder::FlightRecorder;
use crate::slo::SloEngine;

/// The observability module; cloning shares the recorder and SLO
/// engine.
#[derive(Clone)]
pub struct ObsModule {
    recorder: FlightRecorder,
    slo: Option<Rc<RefCell<SloEngine>>>,
}

impl ObsModule {
    /// Creates a module over a recorder.
    pub fn new(recorder: FlightRecorder) -> Self {
        ObsModule {
            recorder,
            slo: None,
        }
    }

    /// Attaches an SLO engine (shared; the caller keeps evaluating it
    /// on the sampling cadence).
    pub fn with_slo(mut self, slo: Rc<RefCell<SloEngine>>) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The wrapped recorder.
    pub fn recorder(&self) -> FlightRecorder {
        self.recorder.clone()
    }
}

impl Module for ObsModule {
    fn name(&self) -> &str {
        "obs"
    }

    fn handle(
        &mut self,
        method: &str,
        _payload: &[u8],
        cx: &mut ControlCx<'_>,
    ) -> Result<Vec<u8>, ControlError> {
        match method {
            "sample" => {
                self.recorder.sample_once(cx.sim);
                if let Some(slo) = &self.slo {
                    let now = cx.sim.now();
                    slo.borrow_mut().evaluate(&self.recorder, now);
                }
                Ok(Vec::new())
            }
            "series" => Ok(self.recorder.to_json().into_bytes()),
            "alerts" => Ok(self
                .slo
                .as_ref()
                .map(|s| s.borrow().events_json())
                .unwrap_or_else(|| "[]".to_string())
                .into_bytes()),
            other => Err(ControlError::UnknownMethod(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderConfig;
    use crate::slo::{Objective, SloSpec};
    use snap_core::module::ControlCx;
    use snap_shm::account::{CpuAccountant, MemoryAccountant};
    use snap_shm::region::RegionRegistry;
    use snap_sim::{Nanos, Sim};
    use snap_telemetry::{StatsConfig, StatsModule};
    use std::collections::BTreeMap;

    #[test]
    fn rpc_surface_samples_and_dumps() {
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let registry = rec.registry();
        registry.counter("ops").add(10);
        let mut slo = SloEngine::new();
        slo.add(SloSpec {
            name: "x".to_string(),
            objective: Objective::SuccessRatio {
                good: "ops".to_string(),
                total: "ops".to_string(),
            },
            target: 0.999,
            short_window: Nanos(10_000),
            long_window: Nanos(50_000),
            burn_threshold: 10.0,
        });
        let mut module =
            ObsModule::new(rec.clone()).with_slo(Rc::new(RefCell::new(slo)));
        let mut sim = Sim::new();
        let groups = BTreeMap::new();
        let memory = MemoryAccountant::new();
        let regions = RegionRegistry::new(memory.clone());
        let cpu = CpuAccountant::new();
        let mut cx = ControlCx {
            sim: &mut sim,
            groups: &groups,
            regions: &regions,
            memory: &memory,
            cpu: &cpu,
            app: "obs-test",
        };
        module.handle("sample", &[], &mut cx).expect("sample ok");
        let series = module.handle("series", &[], &mut cx).expect("series ok");
        let series = String::from_utf8(series).expect("utf8");
        assert!(series.contains("\"ops\""), "{series}");
        let alerts = module.handle("alerts", &[], &mut cx).expect("alerts ok");
        assert_eq!(alerts, b"[]");
        assert!(module.handle("nope", &[], &mut cx).is_err());
        assert_eq!(module.name(), "obs");
        assert_eq!(module.recorder().ticks(), 1);
    }
}
