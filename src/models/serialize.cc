#include "src/models/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "src/util/check.h"

namespace firzen {
namespace {

constexpr char kMagic[4] = {'F', 'Z', 'E', 'M'};
constexpr uint32_t kVersion = 1;

void WriteMatrix(std::ofstream* out, const Matrix& m) {
  const int64_t rows = m.rows();
  const int64_t cols = m.cols();
  out->write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out->write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out->write(reinterpret_cast<const char*>(m.data()),
             static_cast<std::streamsize>(sizeof(Real) * m.size()));
}

// Bytes between the read position and the end of `in`; 0 when the stream
// has failed. Every size a header claims is checked against this before
// anything is allocated, so a hostile header cannot make the loader
// reserve more memory than the file holds.
int64_t BytesLeft(std::ifstream* in) {
  const std::streampos here = in->tellg();
  in->seekg(0, std::ios::end);
  const std::streampos end = in->tellg();
  in->seekg(here);
  if (!*in || here < 0 || end < here) return 0;
  return static_cast<int64_t>(end - here);
}

bool ReadMatrix(std::ifstream* in, Matrix* m) {
  int64_t rows = 0;
  int64_t cols = 0;
  in->read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in->read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!*in || rows < 0 || cols < 0 || rows > (1LL << 32) ||
      cols > (1LL << 20)) {
    return false;
  }
  // rows * cols <= BytesLeft / sizeof(Real), phrased by division so the
  // product cannot overflow.
  const int64_t reals_left =
      BytesLeft(in) / static_cast<int64_t>(sizeof(Real));
  if (cols > 0 && rows > reals_left / cols) return false;
  m->Resize(rows, cols);
  in->read(reinterpret_cast<char*>(m->data()),
           static_cast<std::streamsize>(sizeof(Real) * m->size()));
  return static_cast<bool>(*in);
}

}  // namespace

StaticRecommender::StaticRecommender(std::string name, Matrix user_emb,
                                     Matrix item_emb)
    : name_(std::move(name)),
      user_emb_(std::move(user_emb)),
      item_emb_(std::move(item_emb)) {
  FIRZEN_CHECK_EQ(user_emb_.cols(), item_emb_.cols());
}

void StaticRecommender::Fit(const Dataset& dataset,
                            const TrainOptions& options) {
  (void)dataset;
  (void)options;
  FIRZEN_CHECK_MSG(false,
                   "StaticRecommender serves pre-trained embeddings and "
                   "cannot be fitted");
}

std::unique_ptr<Scorer> StaticRecommender::MakeScorer(
    ScoringPrecision precision) const {
  return std::make_unique<DotProductScorer>(user_emb_, item_emb_,
                                            /*pool=*/nullptr, precision);
}

Status SaveEmbeddings(const Recommender& model, const Matrix& user_emb,
                      const Matrix& item_emb, const std::string& path) {
  if (user_emb.empty() || item_emb.empty()) {
    return Status::FailedPrecondition("model has no final embeddings");
  }
  if (user_emb.cols() != item_emb.cols()) {
    return Status::InvalidArgument("user/item embedding width mismatch");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  WriteMatrix(&out, user_emb);
  WriteMatrix(&out, item_emb);
  const std::string name = model.Name();
  const uint32_t name_len = static_cast<uint32_t>(name.size());
  out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out.write(name.data(), name_len);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::unique_ptr<StaticRecommender>> LoadEmbeddings(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a firzen embedding file");
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) return Status::InvalidArgument(path + ": truncated header");
  if (version != kVersion) {
    return Status::InvalidArgument(path + ": unsupported version " +
                                   std::to_string(version));
  }
  Matrix user_emb;
  Matrix item_emb;
  if (!ReadMatrix(&in, &user_emb) || !ReadMatrix(&in, &item_emb)) {
    return Status::InvalidArgument(path + ": truncated matrix block");
  }
  if (user_emb.cols() != item_emb.cols()) {
    return Status::InvalidArgument(path + ": embedding width mismatch");
  }
  uint32_t name_len = 0;
  in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
  if (name_len > BytesLeft(&in)) {
    return Status::InvalidArgument(path + ": truncated metadata");
  }
  std::string name(name_len, '\0');
  in.read(name.data(), name_len);
  if (!in) return Status::InvalidArgument(path + ": truncated metadata");
  return std::make_unique<StaticRecommender>(name, std::move(user_emb),
                                             std::move(item_emb));
}

}  // namespace firzen
