// Lint fixture: NOT built. Definitions are no calls.
#include "src/graph/fixture_api.h"

int CalledFromModels(int x) { return CalledFromItsOwnCc(x) + 1; }
int CalledFromItsOwnCc(int x) { return x; }
int OnlyItsTestCalls(int x) { return x; }
int NothingCalls(int x) { return x; }
int CheckGradients(int x) { return x; }
int FixtureApi::Unused() const { return 1; }
int FixtureApi::Helper() const { return 2; }
