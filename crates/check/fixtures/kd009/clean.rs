//@path crates/os/src/frame_ops_ok.rs
impl Bitmap {
    pub fn alloc(&mut self, mem: &mut dyn PhysMem, frame: u64) -> u64 {
        self.set_frame_bit(mem, frame, true);
        self.emit(Event::FrameAlloc { frame });
        frame
    }

    pub fn free(&mut self, mem: &mut dyn PhysMem, frame: u64) {
        // Emit-before-write order is equally legal.
        self.emit(Event::FrameFree { frame });
        self.set_frame_bit(mem, frame, false);
    }

    pub fn restore(&mut self, mem: &mut dyn PhysMem, frame: u64) {
        self.checkpoint_start(mem);
        self.set_frame_bit(mem, frame, true);
        self.store_leaf(mem, frame);
        self.checkpoint_end(mem);
    }

    pub fn under_kernel_lock(&mut self, mem: &mut dyn PhysMem, frame: u64) {
        self.emit(Event::LockAcquire { id: LOCK_KERNEL });
        self.set_frame_bit(mem, frame, true);
        self.emit(Event::LockRelease { id: LOCK_KERNEL });
    }
}

impl Patrol {
    pub fn heal_line(&mut self, mem: &mut dyn PhysMem, line: u64) {
        // One PatrolCorrect covers both the image write and the checksum
        // refresh of the healed line.
        self.page_mut(line)[0] = 0;
        self.emit(Event::PatrolCorrect { line });
        self.record_line_checksum(mem, line);
    }

    pub fn store(&mut self, mem: &mut dyn PhysMem, line: u64) {
        self.emit(Event::NvmWrite { line, cycle: 0 });
        self.page_mut(line)[0] = 1;
        self.record_line_checksum(mem, line);
    }
}

impl Controller {
    pub fn zero_line(&mut self, line: PhysAddr) {
        self.emit(Event::NvmWrite { line, cycle: 0 });
        self.store_line(line, &[0; 64], true);
    }
}
