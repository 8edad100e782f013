//! # abacus-cli
//!
//! A small command-line front end to the ABACUS / PARABACUS library, aimed at
//! users who want to count butterflies over their own edge streams without
//! writing Rust:
//!
//! ```text
//! abacus generate --dataset movielens --alpha 0.2 --output stream.txt
//! abacus stats    --input stream.txt
//! abacus run      --input stream.txt --algorithm parabacus --budget 3000 --threads 8
//! abacus accuracy --dataset movielens --budget 1500 --trials 5
//! ```
//!
//! Streams are plain text files with one element per line (`+ u v` /
//! `- u v`, the format of [`abacus_stream::io`]) or compact `ABST1` binary
//! files ([`abacus_stream::binary`]); the format is detected from the file
//! header.  `run`, `stats`, and `accuracy` ingest files through the
//! pull-based source pipeline, so they never materialize the stream —
//! memory stays O(sample budget + pull chunk) no matter how large the file
//! is (`run --ground-truth` is the documented exception: the exact count
//! needs the final graph).
//!
//! The crate deliberately avoids an argument-parsing dependency: the option
//! grammar is tiny (`--key value` pairs after a subcommand) and
//! [`args::Arguments`] implements it in a few dozen testable lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;

pub use args::Arguments;
pub use error::CliError;

/// Runs the CLI against an argument vector (excluding the program name) and
/// returns the text that should be printed to standard output.
///
/// This is the single entry point the `abacus` binary calls; keeping it in
/// the library makes every command testable without spawning processes.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = raw_args.split_first() else {
        return Ok(usage());
    };
    let arguments = Arguments::parse(rest)?;
    match command.as_str() {
        "generate" => commands::generate::run(&arguments),
        "stats" => commands::stats::run(&arguments),
        "run" => commands::run::run(&arguments),
        "resume" => commands::resume::run(&arguments),
        "accuracy" => commands::accuracy::run(&arguments),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "\
abacus — streaming butterfly counting for fully dynamic bipartite graph streams

USAGE:
    abacus <COMMAND> [--key value ...]

COMMANDS:
    generate   Generate a synthetic fully dynamic stream and write it to a file
               --dataset movielens|livejournal|trackers|orkut  (required)
               --alpha <fraction of deleted edges>             (default 0.2)
               --scale <integer dataset scale factor>          (default 1)
               --trial <deletion placement seed>               (default 0)
               --output <path>                                 (required)
               --format text|binary                            (default text; binary
                                                                is the compact ABST1
                                                                varint-delta encoding)

    stats      Print Table II-style statistics of a stream's final graph
               (files are replayed in one streaming pass, never materialized)
               --input <path> | --dataset <name> [--alpha A] [--scale S]

    run        Process a stream with one estimator and print its estimate
               (files are streamed in O(budget + chunk) memory; text or binary
                input is detected from the file header)
               --input <path> | --dataset <name> [--alpha A] [--scale S]
               --algorithm abacus|parabacus|local|fleet|cas|exact
                                                               (default abacus)
               --budget <max sampled edges per estimator>      (default 3000)
               --batch <mini-batch size, parabacus only>       (default 500)
               --threads <worker threads: parabacus counting,
                          or ensemble fan-out>                 (default all)
               --pipeline-depth <accepted, no effect>          (default 2;
                                                                kept for old
                                                                command lines)
               --snapshot <accepted, no effect>                (on|off|auto,
                                                                default auto;
                                                                kept for old
                                                                command lines)
               --seed <estimator RNG seed>                     (default 0)
               --ensemble <K replicas>                         (default: none;
                                                                K=1 is bit-identical
                                                                to the bare estimator)
               --ensemble-mode replicate|partition             (default replicate:
                                                                mean of K full-stream
                                                                replicas; partition
                                                                hash-shards the stream
                                                                and sums per-shard
                                                                local counts)
               --chunk <ingest pull-chunk size>                (default 0 = the
                                                                estimator's preference)
               --ground-truth                                  (also compute the exact
                                                                count and relative error;
                                                                materializes the stream)
               --views peredge,vertex,clustering,bitruss,anomaly|all
                                                               (default: none; subscribe
                                                                incremental delta views
                                                                and print one report
                                                                line per view)
               --checkpoint-dir <dir>                          (default: none; write
                                                                ABSNAP1 snapshots + an
                                                                ABWL1 write-ahead log so
                                                                a killed run can be
                                                                finished with `resume`;
                                                                with --ensemble the run is
                                                                *supervised*: an ensemble
                                                                WAL + per-replica snapshot
                                                                dirs, so a failed replica
                                                                is quarantined while the
                                                                rest keep serving)
               --checkpoint-every <N elements>                 (default 10000)
               --fault-plan <spec>                             (default: none; inject
                                                                deterministic faults:
                                                                panic:replica=<i>@<n>,
                                                                io:replica=<i>@<n>x<f>,
                                                                io@<n>x<f>, corrupt@<n>,
                                                                stall@<n>x<ms>; replica
                                                                faults need --ensemble)

    resume     Recover a killed `run --checkpoint-dir` and finish it
               (loads the newest valid snapshot, replays the WAL, then —
                given the original input — skips the covered prefix and
                processes the remainder; the estimate is bit-identical to
                an uninterrupted run at the same checkpoint cadence.
                Supervised ensemble directories are detected from the
                layout: every replica is rebuilt and quarantined ones are
                rejoined via snapshot restore + ensemble-WAL catch-up)
               --checkpoint-dir <dir>                          (required)
               --input <path> | --dataset <name> [--alpha A] [--scale S]
                                                               (default: none; recover
                                                                and report only)

    accuracy   Average relative error over repeated runs
               (file inputs are re-streamed per trial, never materialized)
               --input <path> | --dataset <name> [--alpha A] [--scale S]
               --algorithm <name, as in run>                   (default abacus)
               --budget <max sampled edges per estimator>      (default 1500)
               --trials <number of runs>                       (default 5)
               --ensemble <K> / --ensemble-mode <mode>         (as in run)

    help       Show this message
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn empty_invocation_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("generate"));
    }

    #[test]
    fn help_prints_usage() {
        for flag in ["help", "--help", "-h"] {
            assert!(run(&argv(&[flag])).unwrap().contains("COMMANDS"));
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn end_to_end_generate_stats_run() {
        let dir = std::env::temp_dir().join("abacus_cli_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.txt");
        let path_str = path.to_str().unwrap();

        let generate = run(&argv(&[
            "generate",
            "--dataset",
            "movielens",
            "--alpha",
            "0.1",
            "--output",
            path_str,
        ]))
        .unwrap();
        assert!(generate.contains("elements"));

        let stats = run(&argv(&["stats", "--input", path_str])).unwrap();
        assert!(stats.contains("butterflies"));

        let run_out = run(&argv(&[
            "run",
            "--input",
            path_str,
            "--algorithm",
            "abacus",
            "--budget",
            "500",
        ]))
        .unwrap();
        assert!(run_out.contains("ABACUS"));
        assert!(run_out.contains("estimate"));

        std::fs::remove_file(&path).ok();
    }
}
