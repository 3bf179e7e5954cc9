// snapshot_diff: compares two snapshot containers (exp::Run checkpoints,
// simty_run --trace files) and names the first divergent section/field.
// The determinism gate's teeth for run state, as trace_diff is for traces:
// "snapshots equal" proves two paused runs are in the same state, and a
// divergence names the component (section) that forked first.
//
//   snapshot_diff a.snap b.snap
//     exit 0: snapshots identical
//     exit 1: snapshots diverge (first divergence printed)
//     exit 2: usage / unreadable or malformed input

#include <cstdio>
#include <exception>

#include "snapshot/snapshot.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: snapshot_diff <a.snap> <b.snap>\n");
    return 2;
  }
  try {
    const simty::snapshot::DecodedSnapshot a =
        simty::snapshot::decode_snapshot(simty::snapshot::read_file(argv[1]));
    const simty::snapshot::DecodedSnapshot b =
        simty::snapshot::decode_snapshot(simty::snapshot::read_file(argv[2]));
    const simty::snapshot::SnapshotDiff diff =
        simty::snapshot::diff_snapshots(a, b);
    std::printf("%s\n", diff.summary.c_str());
    return diff.equal ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snapshot_diff: %s\n", e.what());
    return 2;
  }
}
