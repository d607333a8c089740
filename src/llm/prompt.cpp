#include "llm/prompt.h"

#include <stdexcept>

namespace proximity {

std::string BuildPrompt(std::string_view question,
                        const std::vector<std::string_view>& passages,
                        const PromptOptions& options) {
  std::string prompt;
  prompt.reserve(512 + passages.size() * 128);
  prompt += options.system_preamble;
  prompt += "\n\n";
  for (std::size_t i = 0; i < passages.size(); ++i) {
    std::string block = "[";
    block += std::to_string(i + 1);
    block += "] ";
    block += passages[i];
    block += '\n';
    if (prompt.size() + block.size() + question.size() + 16 >
        options.max_chars) {
      break;  // context window exhausted; drop the remaining passages
    }
    prompt += block;
  }
  prompt += "\nQuestion: ";
  prompt += question;
  prompt += "\nAnswer:";
  return prompt;
}

std::string BuildPrompt(std::string_view question,
                        const std::vector<VectorId>& passage_ids,
                        const std::vector<std::string>& corpus,
                        const PromptOptions& options) {
  std::vector<std::string_view> passages;
  passages.reserve(passage_ids.size());
  for (VectorId id : passage_ids) {
    if (id < 0 || static_cast<std::size_t>(id) >= corpus.size()) {
      throw std::out_of_range("BuildPrompt: passage id out of range");
    }
    passages.push_back(corpus[static_cast<std::size_t>(id)]);
  }
  return BuildPrompt(question, passages, options);
}

}  // namespace proximity
