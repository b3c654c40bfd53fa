// swve — Smith-Waterman with Vector Extensions.
//
// Umbrella header for the public API:
//   swve::service::AlignService async request/future front door over all
//                               three scenarios, with metrics
//   swve::net::Server/Client    protocol v1 TCP serving layer over the
//                               service (singleflight, result cache, QoS)
//   swve::align::Aligner        pairwise alignment (scenario 3 friendly)
//   swve::align::DatabaseSearch single query vs database (scenario 1)
//   swve::seq::*                alphabets, sequences, FASTA, synthetic data
//   swve::matrix::ScoreMatrix   BLOSUM/PAM tables, 32-column padded layout
//   swve::baseline::*           Parasail-style diag/scan/striped kernels
//   swve::tune::*               GA compiler-hyperparameter tuner
//   swve::perf::*               GCUPS, frequency monitor, top-down analysis
//   swve::obs::*                tracing, metric exporters, live sampler
#pragma once

#include "align/aligner.hpp"
#include "align/db_search.hpp"
#include "align/format.hpp"
#include "align/sharded_search.hpp"
#include "align/stats.hpp"
#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/batch32.hpp"
#include "core/db_format.hpp"
#include "core/mapped_db.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "matrix/query_profile.hpp"
#include "matrix/score_matrix.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/inflight.hpp"
#include "obs/log.hpp"
#include "obs/pmu.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "parallel/partition.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/topology.hpp"
#include "perf/freq_monitor.hpp"
#include "perf/gcups.hpp"
#include "perf/metrics.hpp"
#include "perf/table.hpp"
#include "perf/timer.hpp"
#include "perf/topdown.hpp"
#include "seq/database.hpp"
#include "seq/fasta.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"
#include "simd/cpu.hpp"
#include "tune/evaluator.hpp"
#include "tune/ga.hpp"
