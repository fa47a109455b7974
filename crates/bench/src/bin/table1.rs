//! Prints the machine configuration — the paper's Table I.
//!
//! The far-tier row comes from the selected backend's trait accessors
//! (`--backend`, default PCM), never from raw `NvmConfig` fields — the
//! KD013 lint keeps latency/endurance fields inside the backend layer.

use kindle_bench::*;

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let cfg = MachineConfig::table_i();
    let far = harness.backend().instance();
    println!("TABLE I: gem5-analog Memory Configuration");
    rule(52);
    println!("{:<28} {}", "Parameter", "Used Setting");
    rule(52);
    println!("{:<28} DDR4-2400 ({} banks)", "DRAM interface", cfg.mem.dram.banks);
    println!(
        "{:<28} {} ({} ns rd / {} ns wr)",
        "NVM interface",
        far.label(),
        far.read_latency_ns(),
        far.write_latency_ns()
    );
    println!("{:<28} {}", "NVM Write buffer size", far.write_buffer_entries());
    println!("{:<28} {}", "NVM Read buffer size", far.read_buffer_entries());
    println!(
        "{:<28} {} GB DRAM + {} GB NVM",
        "Memory capacity",
        cfg.mem.layout.total(MemKind::Dram) >> 30,
        cfg.mem.layout.total(MemKind::Nvm) >> 30
    );
    println!(
        "{:<28} {} KiB L1 / {} KiB L2 / {} MiB LLC",
        "Caches",
        cfg.caches.l1.size_bytes >> 10,
        cfg.caches.l2.size_bytes >> 10,
        cfg.caches.llc.size_bytes >> 20
    );
    println!("{:<28} 3 GHz in-order x86-64", "CPU");
    // Table I has no experiment rows: its "rows" value is the one
    // configuration object.
    harness.maybe_json(json::obj([
        ("dram_banks", cfg.mem.dram.banks.to_string()),
        ("nvm_read_ns", far.read_latency_ns().to_string()),
        ("nvm_write_service_ns", far.write_latency_ns().to_string()),
        ("nvm_write_buffer", far.write_buffer_entries().to_string()),
        ("nvm_read_buffer", far.read_buffer_entries().to_string()),
        ("dram_gb", (cfg.mem.layout.total(MemKind::Dram) >> 30).to_string()),
        ("nvm_gb", (cfg.mem.layout.total(MemKind::Nvm) >> 30).to_string()),
        ("l1_kib", (cfg.caches.l1.size_bytes >> 10).to_string()),
        ("l2_kib", (cfg.caches.l2.size_bytes >> 10).to_string()),
        ("llc_mib", (cfg.caches.llc.size_bytes >> 20).to_string()),
        ("cpu_freq_ghz", types::CPU_FREQ_GHZ.to_string()),
    ]))?;
    harness.finish()
}
