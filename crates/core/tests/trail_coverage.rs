//! Every swap plane writes its swaps to the lifecycle trail.
//!
//! The trail is the stack's one event stream: the Chrome export and the
//! flight recorder read nothing else. So each plane, with a registry
//! attached, must leave a `Compress` and a `Fault` event in the page
//! history of every page it swaps out and back in — the same-filled
//! fast path included.

use xfm_core::backend::{XfmBackend, XfmBackendConfig};
use xfm_sfm::{CpuBackend, SfmConfig, ShardedSfm, ShardedSfmConfig, SwapPlane};
use xfm_telemetry::{Cause, LifecycleStage, Registry};
use xfm_types::{Nanos, PageNumber, PAGE_SIZE};

const SAME_FILLED: PageNumber = PageNumber::new(1);
const COMPRESSIBLE: PageNumber = PageNumber::new(2);

fn planes() -> Vec<(&'static str, Registry, Box<dyn SwapPlane>)> {
    let sharded = {
        let registry = Registry::new();
        let mut p = ShardedSfm::new(ShardedSfmConfig::default());
        p.attach_telemetry(&registry);
        ("sharded", registry, Box::new(p) as Box<dyn SwapPlane>)
    };
    let cpu = {
        let registry = Registry::new();
        let mut p = CpuBackend::new(SfmConfig::default());
        p.attach_telemetry(&registry);
        ("cpu", registry, Box::new(p) as Box<dyn SwapPlane>)
    };
    let xfm = {
        let registry = Registry::new();
        let mut p = XfmBackend::new(XfmBackendConfig::default());
        p.attach_telemetry(&registry);
        p.advance_to(Nanos::from_ms(1));
        ("xfm", registry, Box::new(p) as Box<dyn SwapPlane>)
    };
    vec![sharded, cpu, xfm]
}

#[test]
fn every_plane_records_compress_and_fault_on_the_trail() {
    let same = vec![0x5a; PAGE_SIZE];
    let text = xfm_compress::Corpus::Json.generate(2, PAGE_SIZE);
    for (name, registry, plane) in planes() {
        plane.swap_out(SAME_FILLED, &same).unwrap();
        plane.swap_out(COMPRESSIBLE, &text).unwrap();
        assert_eq!(plane.swap_in(SAME_FILLED, false).unwrap().0, same);
        assert_eq!(plane.swap_in(COMPRESSIBLE, false).unwrap().0, text);
        // The codec path's cause names where it ran: `Ok` on the CPU
        // planes, NMA offload or CPU fallback on the XFM backend.
        for (page, causes) in [
            (SAME_FILLED, &[Cause::SameFilled][..]),
            (
                COMPRESSIBLE,
                &[Cause::Ok, Cause::NmaOffload, Cause::CpuFallback][..],
            ),
        ] {
            let history = registry.lifecycle().page_history(page.index());
            assert!(
                history
                    .iter()
                    .any(|e| e.stage == LifecycleStage::Compress && causes.contains(&e.cause)),
                "{name}: {page} has no Compress {causes:?} event in {history:?}"
            );
            assert!(
                history.iter().any(|e| e.stage == LifecycleStage::Fault),
                "{name}: {page} has no Fault event in {history:?}"
            );
        }
    }
}
