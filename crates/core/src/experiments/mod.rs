//! Drivers for every table and figure in the paper's evaluation (§III).
//!
//! | Paper artifact | Driver | What it sweeps |
//! |----------------|--------|----------------|
//! | Fig. 4a | [`run_fig4a`] | sequential alloc+access size × page-table scheme |
//! | Fig. 4b | [`run_fig4b`] | allocation stride (1 GiB / 2 MiB / 4 KiB) × scheme |
//! | Table III | [`run_table3`] | munmap/mmap churn size × scheme |
//! | Table IV | [`run_table4`] | checkpoint interval × churn size × scheme |
//! | Fig. 5 | [`run_fig5`] | SSP consistency interval × benchmark |
//! | Fig. 6 / Tables V & VI | [`run_fig6`] | HSCC fetch threshold × benchmark |
//! | Backends grid | [`run_backend_grid`] | far-tier backend × page-table scheme |
//!
//! Every driver takes a params struct with `paper()` (full scale) and
//! `quick()` (CI/bench scale) constructors and returns serialisable row
//! types whose columns match the paper's.

mod backends;
pub mod csv;
mod hscc_study;
mod persistence;
mod ssp_study;

pub use backends::{run_backend_grid, BackendGridParams};
pub use csv::{to_csv, CsvRow};
pub use hscc_study::{run_fig6, Fig6Params, Fig6Row};
pub use persistence::{
    run_fig4a, run_fig4b, run_table3, run_table4, Fig4aParams, Fig4aRow, Fig4bParams, Fig4bRow,
    Table3Params, Table3Row, Table4Params, Table4Row,
};
pub use ssp_study::{run_consolidation_sweep, run_fig5, ConsolidationRow, Fig5Params, Fig5Row};
