//! Deterministic fault injection for the durability path and the
//! service above it.
//!
//! The store's crash-safety claims (no acknowledged mutation lost, a
//! checkpoint is atomic at the manifest rename, corrupt generations are
//! quarantined) are only testable if the crashes themselves are
//! *reproducible*. This module plants named **faultpoints** on the
//! journal's critical path; with the `fault-injection` cargo feature a
//! test arms a point with a [`FaultPlan`] — panic, fixed delay, or I/O
//! error — and the next N passages through it fire deterministically.
//! Without the feature every hook is an empty `#[inline]` function and
//! the registry does not exist, so production builds pay nothing.
//!
//! This is the workspace's one registry. It lives here because the store
//! cannot depend on the serving layer; `atd-serve` re-exports this
//! module as `atd_serve::faultpoint` and plants its `serve.*` points in
//! the same registry, so one `reset()` (under the feature) clears the
//! points of both crates.
//!
//! Faultpoints in this crate:
//!
//! | name                     | site                                         | armed effect |
//! |--------------------------|----------------------------------------------|--------------|
//! | `store.wal_append`       | before the WAL record write + fsync          | I/O error / panic → append fails, mutation is NOT acknowledged |
//! | `store.checkpoint`       | after generation files exist, before publish | panic → orphaned gen files, manifest still names the old generation |
//! | `store.manifest_publish` | before the manifest tmp+rename               | I/O error / panic → checkpoint aborts, old manifest keeps ruling |

use std::time::Duration;

/// What an armed faultpoint does when hit.
#[derive(Debug, Clone)]
pub enum Fault {
    /// `panic!` with this message (the simulated `kill -9`).
    Panic(&'static str),
    /// Sleep for this long, then continue normally.
    Delay(Duration),
    /// Return an `io::Error` from [`hit_io`] (non-I/O sites treat it as
    /// a panic with the error text).
    IoError(&'static str),
}

/// An armed fault: which [`Fault`], after how many clean passages, how
/// many times.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The effect to fire.
    pub fault: Fault,
    /// Passages to let through cleanly before firing.
    pub skip: u32,
    /// How many passages fire (after `skip`); the plan disarms itself
    /// when exhausted.
    pub times: u32,
}

impl FaultPlan {
    /// Fire on the very next passage, `times` times.
    pub fn next(fault: Fault, times: u32) -> FaultPlan {
        FaultPlan {
            fault,
            skip: 0,
            times,
        }
    }

    /// Fire once after `skip` clean passages.
    pub fn after(fault: Fault, skip: u32) -> FaultPlan {
        FaultPlan {
            fault,
            skip,
            times: 1,
        }
    }
}

#[cfg(feature = "fault-injection")]
mod armed {
    use super::{Fault, FaultPlan};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    fn registry() -> &'static Mutex<HashMap<&'static str, FaultPlan>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, FaultPlan>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<&'static str, FaultPlan>> {
        // Faultpoints fire panics by design; recover the registry lock.
        registry().lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arms `point` with `plan`, replacing any previous plan.
    pub fn arm(point: &'static str, plan: FaultPlan) {
        lock().insert(point, plan);
    }

    /// Disarms `point`; passages become clean again.
    pub fn disarm(point: &'static str) {
        lock().remove(point);
    }

    /// Disarms every faultpoint (test teardown).
    pub fn reset() {
        lock().clear();
    }

    /// Decides what this passage through `point` does. Exhausted plans
    /// self-disarm.
    pub(super) fn consume(point: &'static str) -> Option<Fault> {
        let mut reg = lock();
        let plan = reg.get_mut(point)?;
        if plan.skip > 0 {
            plan.skip -= 1;
            return None;
        }
        if plan.times == 0 {
            reg.remove(point);
            return None;
        }
        plan.times -= 1;
        let fault = plan.fault.clone();
        if plan.times == 0 {
            reg.remove(point);
        }
        Some(fault)
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{arm, disarm, reset};

/// A passage through faultpoint `point` on a non-I/O path. Armed panics
/// fire here; delays sleep; `IoError` plans also panic (the site has no
/// error channel). Compiles to nothing without `fault-injection`.
#[inline]
pub fn hit(point: &'static str) {
    #[cfg(feature = "fault-injection")]
    {
        match armed::consume(point) {
            Some(Fault::Panic(msg)) => panic!("injected fault at {point}: {msg}"),
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::IoError(msg)) => panic!("injected io fault at {point}: {msg}"),
            None => {}
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = point;
}

/// A passage through faultpoint `point` on an I/O path: `IoError` plans
/// return `Err`, others behave as in [`hit`]. Compiles to `Ok(())`
/// without `fault-injection`.
#[inline]
pub fn hit_io(point: &'static str) -> std::io::Result<()> {
    #[cfg(feature = "fault-injection")]
    {
        match armed::consume(point) {
            Some(Fault::Panic(msg)) => panic!("injected fault at {point}: {msg}"),
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::IoError(msg)) => {
                return Err(std::io::Error::other(format!(
                    "injected io fault at {point}: {msg}"
                )))
            }
            None => {}
        }
    }
    let _ = point;
    Ok(())
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    // One test exercises all plan mechanics: the registry is process-global,
    // so independent #[test]s would race each other's arm/reset.
    #[test]
    fn plans_skip_fire_and_self_disarm() {
        reset();
        // skip=2, times=1: two clean passages, one error, then clean.
        arm("t.io", FaultPlan::after(Fault::IoError("disk gone"), 2));
        assert!(hit_io("t.io").is_ok());
        assert!(hit_io("t.io").is_ok());
        let err = hit_io("t.io").unwrap_err();
        assert!(err.to_string().contains("disk gone"));
        assert!(hit_io("t.io").is_ok(), "plan self-disarmed");

        // Panic plan fires with the point name in the payload.
        arm("t.panic", FaultPlan::next(Fault::Panic("boom"), 1));
        let caught = std::panic::catch_unwind(|| hit("t.panic")).unwrap_err();
        let msg = caught.downcast_ref::<String>().unwrap();
        assert!(msg.contains("t.panic") && msg.contains("boom"));
        hit("t.panic"); // disarmed again

        // Delay plan sleeps and continues.
        arm(
            "t.delay",
            FaultPlan::next(Fault::Delay(Duration::from_millis(30)), 1),
        );
        let t0 = std::time::Instant::now();
        hit("t.delay");
        assert!(t0.elapsed() >= Duration::from_millis(25));

        // Unarmed points are free; disarm is idempotent.
        hit("t.never");
        disarm("t.never");
        reset();
    }
}
