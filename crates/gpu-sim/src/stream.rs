//! CUDA-style streams.
//!
//! A [`Stream`] is an ordered queue of operations. Operations on *different*
//! streams overlap as long as they use different engines: the copy engine
//! (PCIe) and the compute engine (SMs) are independent resources, which is
//! exactly the mechanism the paper exploits ("not only computation but also
//! data transfer can be overlapped between the device and the host", §II).
//!
//! A stream moves no data and runs no code: each operation is a charge.
//! It is assigned a simulated interval starting no earlier than both the
//! stream's cursor and the engine's availability, and the timeline records
//! the interval. Callers must therefore submit operations in dependency
//! order, the same discipline CUDA imposes within a stream.

use crate::device::Device;
use crate::timeline::{Resource, WorkUnit};

/// An ordered operation queue on a device.
pub struct Stream<'d> {
    device: &'d Device,
    cursor_ns: f64,
}

impl<'d> Stream<'d> {
    /// Opens a new stream whose first operation may start at simulated time
    /// zero.
    pub fn new(device: &'d Device) -> Self {
        Self {
            device,
            cursor_ns: 0.0,
        }
    }

    /// The device this stream submits to.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The stream's simulated completion time so far.
    pub fn cursor_ns(&self) -> f64 {
        self.cursor_ns
    }

    /// Charges a host↔device copy of `bytes` bytes to the PCIe copy engine
    /// and returns its simulated duration in nanoseconds.
    pub fn transfer(&mut self, bytes: usize) -> f64 {
        let dur = self.device.config().pcie.transfer_ns(bytes);
        let mut clocks = self.device.clocks.lock();
        let start = self.cursor_ns.max(clocks.copy_free_ns);
        let end = start + dur;
        clocks.copy_free_ns = end;
        drop(clocks);
        self.device
            .record(Resource::PcieLink, WorkUnit::Transfer, start, end);
        self.cursor_ns = end;
        dur
    }

    /// Charges a kernel of `threads` threads, each costing
    /// `cycles_per_thread` cycles, to the compute engine, and returns its
    /// simulated duration in nanoseconds.
    ///
    /// Warps go round-robin to the SMs, and an SM runs its warps back to
    /// back at the `warp_size / cores_per_sm` issue factor. Every warp
    /// costs the same, so the busiest SM, which sets the duration, runs
    /// `ceil(ceil(threads / warp_size) / num_sms)` of them.
    pub fn kernel(&mut self, unit: WorkUnit, threads: usize, cycles_per_thread: u64) -> f64 {
        let cfg = self.device.config();
        let rounds = threads.div_ceil(cfg.warp_size).div_ceil(cfg.num_sms) as u64;
        let dur = cfg.cycles_to_ns(rounds * cycles_per_thread * cfg.issue_factor());
        let mut clocks = self.device.clocks.lock();
        let start = self.cursor_ns.max(clocks.gpu_free_ns);
        let end = start + dur;
        clocks.gpu_free_ns = end;
        drop(clocks);
        self.device.record(Resource::Gpu, unit, start, end);
        self.cursor_ns = end;
        dur
    }

    /// Holds this stream's next operation until simulated time `t_ns`
    /// (host code that produces inputs at a known simulated time, such as
    /// the FEED worker's completion, or another stream's
    /// [`Stream::cursor_ns`]). The cursor never moves back.
    pub fn wait_until(&mut self, t_ns: f64) {
        self.cursor_ns = self.cursor_ns.max(t_ns);
    }

    /// Completes all submitted work and returns the stream's simulated
    /// finish time.
    pub fn synchronize(&self) -> f64 {
        self.cursor_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn tiny() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn h2d_copies_data_and_costs_transfer_time() {
        let dev = tiny();
        let mut s = Stream::new(&dev);
        // 128 words: 1 µs latency + 1024 bytes at 1 GB/s (= 1 ns/byte).
        assert_eq!(s.transfer(128 * 8), 2_024.0);
        assert_eq!(s.cursor_ns(), 2_024.0);
    }

    #[test]
    fn within_stream_operations_serialize() {
        let dev = tiny();
        let mut s = Stream::new(&dev);
        s.transfer(1000);
        let after_copy = s.cursor_ns();
        s.kernel(WorkUnit::Generate, 8, 100);
        let tl = dev.timeline();
        let kernel_iv = &tl.intervals()[1];
        assert_eq!(kernel_iv.start_ns, after_copy);
    }

    #[test]
    fn copies_and_kernels_on_different_streams_overlap() {
        let dev = tiny();
        let mut compute = Stream::new(&dev);
        let mut copy = Stream::new(&dev);
        // Long kernel on the compute stream.
        compute.kernel(WorkUnit::Generate, 8, 100_000);
        // Copy on the other stream should start at t=0, under the kernel.
        copy.transfer(100);
        let tl = dev.timeline();
        let kernel = &tl.intervals()[0];
        let xfer = &tl.intervals()[1];
        assert_eq!(xfer.start_ns, 0.0);
        assert!(
            xfer.end_ns < kernel.end_ns,
            "transfer did not overlap the kernel"
        );
    }

    #[test]
    fn two_kernels_on_different_streams_share_the_gpu() {
        // The compute engine is a single resource: kernels from different
        // streams serialize on it (no concurrent-kernel support on the
        // C1060).
        let dev = tiny();
        let mut a = Stream::new(&dev);
        let mut b = Stream::new(&dev);
        a.kernel(WorkUnit::Generate, 8, 100);
        b.kernel(WorkUnit::Generate, 8, 100);
        let tl = dev.timeline();
        assert_eq!(tl.intervals()[1].start_ns, tl.intervals()[0].end_ns);
    }

    #[test]
    fn events_order_across_streams() {
        // A consumer stream waits on a producer's cursor, the simulated
        // form of recording an event on one stream and waiting on it in
        // another.
        let dev = tiny();
        let mut producer = Stream::new(&dev);
        let mut consumer = Stream::new(&dev);
        producer.transfer(5000);
        consumer.wait_until(producer.cursor_ns());
        consumer.kernel(WorkUnit::Generate, 8, 1);
        let tl = dev.timeline();
        let xfer_end = tl.intervals()[0].end_ns;
        let kernel_start = tl.intervals()[1].start_ns;
        assert!(kernel_start >= xfer_end);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let dev = tiny();
        let mut s = Stream::new(&dev);
        s.wait_until(100.0);
        assert_eq!(s.cursor_ns(), 100.0);
        s.wait_until(50.0);
        assert_eq!(s.cursor_ns(), 100.0);
    }
}
