// Lint fixture: NOT built. Calls two functions of src/graph/fixture_api.h;
// a mention in a comment is no call: NothingCalls(0), "Unused".
#include "src/graph/fixture_api.h"

int UseFixtureApi() { return CalledFromModels(1) + FixtureApi().Used(); }
