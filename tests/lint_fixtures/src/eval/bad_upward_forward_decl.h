// Lint fixture: NOT built. The eval layer forward-declaring a class that
// the serve layer defines (src/serve/fixture_coordinator.h) — the
// dependency of an upward #include with the include left out.
// Expected finding: upward-forward-decl (once: the same-layer and
// lower-layer declarations and the enum are legal).
#ifndef FIXTURE_BAD_UPWARD_FORWARD_DECL_H_
#define FIXTURE_BAD_UPWARD_FORWARD_DECL_H_

class FixtureCoordinator;  // defined in src/serve/: flagged
class FixtureEvalEngine;   // defined in this layer: legal
enum class FixtureMode;    // not a class: legal

class FixtureEvalEngine {
 public:
  int Serve() const { return 0; }
};

#endif  // FIXTURE_BAD_UPWARD_FORWARD_DECL_H_
