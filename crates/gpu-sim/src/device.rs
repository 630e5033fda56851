//! The simulated device: its configuration, its engine clocks and its
//! timeline.

use crate::config::DeviceConfig;
use crate::timeline::{Resource, Timeline, WorkUnit};
use parking_lot::Mutex;

/// Resource-availability clocks used to schedule simulated operations.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ResourceClocks {
    /// Earliest simulated time the GPU compute engine is free.
    pub gpu_free_ns: f64,
    /// Earliest simulated time the PCIe copy engine is free.
    pub copy_free_ns: f64,
}

/// The simulated GPU: a machine description, the times at which its
/// compute and copy engines next fall free, and the timeline of what they
/// did. Work reaches it through [`crate::Stream`]s.
pub struct Device {
    config: DeviceConfig,
    timeline: Mutex<Timeline>,
    pub(crate) clocks: Mutex<ResourceClocks>,
}

impl Device {
    /// Brings up a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            timeline: Mutex::new(Timeline::new()),
            clocks: Mutex::new(ResourceClocks::default()),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Snapshot of the recorded timeline.
    pub fn timeline(&self) -> Timeline {
        self.timeline.lock().clone()
    }

    /// Clears the timeline and resets the simulated clocks.
    pub fn reset_timeline(&self) {
        self.timeline.lock().clear();
        *self.clocks.lock() = ResourceClocks::default();
    }

    /// Records a host-side interval (FEED workers and application phases
    /// use this to appear on the same chart as device work).
    pub fn record(&self, resource: Resource, unit: WorkUnit, start_ns: f64, end_ns: f64) {
        self.timeline
            .lock()
            .record(resource, unit, start_ns, end_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stream;

    fn tiny() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn sim_time_scales_with_charged_work() {
        let dev = tiny();
        let mut s = Stream::new(&dev);
        // Exactly one warp.
        let light = s.kernel(WorkUnit::Other, 8, 10);
        let heavy = s.kernel(WorkUnit::Other, 8, 1000);
        assert!(heavy > light * 50.0);
        // One warp of 8 lanes at issue factor 2 (8/4): 10 cycles * 2 = 20 ns
        // at 1 GHz.
        assert_eq!(light, 20.0);
    }

    #[test]
    fn warps_distribute_across_sms() {
        let dev = tiny(); // 2 SMs
        let mut s = Stream::new(&dev);
        // Two warps of equal cost land on different SMs: total time equals
        // one warp's time.
        let one = s.kernel(WorkUnit::Other, 8, 50);
        let two = s.kernel(WorkUnit::Other, 16, 50);
        assert_eq!(one, two);
        // Three warps (the third one partial): one SM gets two.
        let three = s.kernel(WorkUnit::Other, 17, 50);
        assert_eq!(three, 2.0 * one);
    }

    #[test]
    fn default_stream_serializes_on_timeline() {
        let dev = tiny();
        let mut s = Stream::new(&dev);
        s.kernel(WorkUnit::Generate, 8, 10);
        s.kernel(WorkUnit::Generate, 8, 10);
        let tl = dev.timeline();
        let iv = tl.intervals();
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[1].start_ns, iv[0].end_ns);
    }

    #[test]
    fn reset_clears_everything() {
        let dev = tiny();
        let mut s = Stream::new(&dev);
        s.kernel(WorkUnit::Other, 8, 10);
        s.transfer(64);
        dev.reset_timeline();
        assert_eq!(dev.timeline().intervals().len(), 0);
        let clocks = *dev.clocks.lock();
        assert_eq!((clocks.gpu_free_ns, clocks.copy_free_ns), (0.0, 0.0));
    }
}
