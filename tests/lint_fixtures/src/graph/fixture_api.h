// Lint fixture: NOT built. The unused-api rule over one header: a public
// function needs a caller outside this header, its own .cc and tests/.
// Expected findings: unused-api three times (OnlyItsTestCalls,
// NothingCalls, FixtureApi::Unused).
#ifndef FIXTURE_API_H_
#define FIXTURE_API_H_

int CalledFromModels(int x);    // src/models/fixture_api_caller.cc calls it
int CalledFromItsOwnCc(int x);  // CalledFromModels' body calls it: legal
int OnlyItsTestCalls(int x);    // tests/ is no caller: flagged
int NothingCalls(int x);        // flagged
int CheckGradients(int x);      // allowlisted, with its reason

class FixtureApi {
 public:
  int Used() const { return Helper(); }
  int Unused() const;  // flagged

 private:
  int Helper() const;  // private: not part of the interface
};

#endif  // FIXTURE_API_H_
