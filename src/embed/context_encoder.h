// Dynamic (context-aware) token encoding: the offline stand-in for
// BERT/RoBERTa-style models.
//
// Token vectors start from the static hashed embedding and are then mixed
// with their neighbours through one scaled dot-product attention pass whose
// keys are IDF-weighted, so the same token receives different vectors in
// different records — the defining property of the "dynamic" cell in the
// paper's taxonomy. A model-variant salt lets us instantiate two distinct
// encoders (the EMTransformer-B vs EMTransformer-R analogy).
//
// An encoder hashes each distinct token's static vector once and keeps it
// for its own lifetime; a token's static vector is a pure function of its
// bytes, so the memo never changes a value. Encoding writes the memo, so
// one encoder serves one thread: callers scope it to one unit of work (a
// DL matcher builds one per Run) and let it go after.
#ifndef RLBENCH_SRC_EMBED_CONTEXT_ENCODER_H_
#define RLBENCH_SRC_EMBED_CONTEXT_ENCODER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/hashed_embedding.h"
#include "embed/vector_ops.h"
#include "text/tfidf.h"

namespace rlbench::embed {

/// \brief One-pass attention context mixer over static token embeddings.
class ContextEncoder {
 public:
  /// The TF-IDF model supplies token-salience weights and must outlive the
  /// encoder; `variant_salt` decorrelates different simulated checkpoints.
  ContextEncoder(size_t dim, uint64_t seed, uint64_t variant_salt,
                 const text::TfIdfModel* tfidf);

  size_t dim() const { return static_.dim(); }

  /// Contextualised vectors, one per input token.
  std::vector<Vec> EncodeTokens(const std::vector<std::string>& tokens);

  /// Sequence embedding: IDF-weighted mean of the contextualised token
  /// vectors, L2-normalised (the [CLS]-pooling analogue).
  Vec EncodeSequence(const std::vector<std::string>& tokens);

 private:
  /// The static vector of `token`, hashed on its first use.
  const Vec& StaticVector(const std::string& token);

  HashedEmbedding static_;
  const text::TfIdfModel* tfidf_;
  double mixing_ = 0.3;  // how much context flows into each token vector
  std::unordered_map<std::string, Vec> static_memo_;
};

}  // namespace rlbench::embed

#endif  // RLBENCH_SRC_EMBED_CONTEXT_ENCODER_H_
