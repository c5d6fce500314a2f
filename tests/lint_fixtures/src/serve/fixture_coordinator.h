// Lint fixture: NOT built. Defines the serve-layer class that
// src/eval/bad_upward_forward_decl.h forward-declares, and forward-declares
// a lower-layer class, which is legal.
// Expected finding: none.
#ifndef FIXTURE_COORDINATOR_H_
#define FIXTURE_COORDINATOR_H_

class FixtureEvalEngine;

class FixtureCoordinator final {
 public:
  int Serve(const FixtureEvalEngine* engine) const;
};

#endif  // FIXTURE_COORDINATOR_H_
