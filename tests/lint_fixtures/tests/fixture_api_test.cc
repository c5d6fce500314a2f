// Lint fixture: NOT built. A test's call does not count as a caller.
#include "src/graph/fixture_api.h"

int main() { return OnlyItsTestCalls(0) + FixtureApi().Unused(); }
