//! One module per paper table / figure.
//!
//! Every function returns [`abacus_metrics::Table`]s whose rows mirror the
//! series the paper plots, so printing them from a bench target regenerates
//! the corresponding result.  `EXPERIMENTS.md` records one captured run next
//! to the paper's reported values.

pub mod accuracy;
pub mod deletions;
pub mod load_balance;
pub mod scalability;
pub mod speedup;
pub mod table2;
pub mod throughput;

pub use accuracy::{fig3_accuracy_with_deletions, fig5_accuracy_insert_only};
pub use deletions::{fig6a_error_vs_alpha, fig6b_throughput_vs_alpha};
pub use load_balance::fig10_load_balance;
pub use scalability::fig7_scalability;
pub use speedup::{fig8_speedup_vs_batch_size, fig9_speedup_vs_threads};
pub use table2::table2_dataset_statistics;
pub use throughput::fig4_throughput;
