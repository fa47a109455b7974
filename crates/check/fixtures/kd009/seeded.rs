//@path crates/os/src/frame_ops.rs
impl Bitmap {
    pub fn alloc(&mut self, mem: &mut dyn PhysMem, frame: u64) -> Option<u64> {
        self.set_frame_bit(mem, frame, true);
        Some(frame)
    }

    pub fn free(&mut self, mem: &mut dyn PhysMem, frame: u64) -> Result<()> {
        if frame == 0 {
            return Err(KindleError::InvalidArgument("frame"));
        }
        self.set_frame_bit(mem, frame, false);
        if self.poisoned {
            return Err(KindleError::InvalidArgument("poisoned"));
        }
        self.emit(Event::FrameFree { frame });
        Ok(())
    }

    pub fn install(&mut self, mem: &mut dyn PhysMem, pa: PhysAddr, pte: Pte) -> Result<()> {
        self.store_leaf(mem, pa, pte);
        self.probe(mem)?;
        self.emit(Event::PteInstall { pa });
        Ok(())
    }
}

impl Patrol {
    pub fn rehash(&mut self, mem: &mut dyn PhysMem, line: u64) {
        self.record_line_checksum(mem, line);
        self.emit(Event::PatrolDetect { line });
    }

    pub fn stamp(&mut self, mem: &mut dyn PhysMem, line: u64) {
        self.emit(Event::PatrolDetect { line });
        self.page_mut(line)[0] = 0xff;
    }
}

impl Controller {
    pub fn zero_line(&mut self, line: PhysAddr) {
        self.store_line(line, &[0; 64], true);
    }
}
