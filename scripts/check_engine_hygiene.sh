#!/usr/bin/env bash
# Keeps the one-phase, two-engine design (DESIGN.md §6, §7) from growing
# back: the naive reference and the bitmap-gated engine are the only
# engines, and neither has a commit phase. Fails when src/, tools/, bench/,
# tests/ or examples/ mention the removed engine kinds, the per-run engine
# thread count, mesh regions, or an identifier of the deleted run-list,
# threaded, link-commit, CDC-commit, mixed-stride and register-commit
# machinery.
#
# The thread count keeps exactly one kind of mention: the diagnostics that
# reject it in old inputs. Those all point to `noc_sweep --jobs N`, so a
# line that also names jobs is allowed.
#
#   scripts/check_engine_hygiene.sh        (also registered as a ctest)
set -euo pipefail

cd "$(dirname "$0")/.."

removed='\b(threads|regions?|kOptimized|kSoa|EngineConfigName|ValidateEngineConfig|kMaxEngineThreads|ParallelEngine|ParallelSink|tls_parallel_sink|RegionSchedule|set_region|RefreshRunList|RunEvalLists|EvaluatePhaseSoa|run_every_|run_strided_|uniform_stride_|run_list_dirty_|atomic_ref|SetCommitStride|commit_stride_|commit_phase_|DirectedLink|CdcWriteSide|CdcReadSide|CommitWriteSide|CommitReadSide|MarkDirtyAt|AddDirtyAt|commit_due_|kNeverDue|SetDefaultCommitOnly|always_commit_|writer_edges_|reader_edges_|strided_uniform_|TwoPhase|MarkDirty|RegisterState|AddDirty|CommitDirty|CommitAll|commit_bits_|CommitPhase|CommitSweep|RegApply|FlushRequestRegister)\b|sim/parallel\.(h|cpp)'

hits="$(grep -rnE "$removed" src tools bench tests examples |
        grep -vE '[Jj]obs' || true)"
if [[ -n "$hits" ]]; then
  echo "error: removed engine machinery is mentioned again:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "engine hygiene: clean"
