from .logistic import LogisticModel, fit_logistic, predict_logistic
from .forest import (
    ForestModel,
    ImportanceReport,
    fit_forest,
    permutation_importance,
    predict_forest,
)
from .io import load_model, model_type, save_model


def logistic_trainer():
    """Cross-validation adapter: trainer(data) -> scores(X) callable."""

    def train(data):
        model = fit_logistic(data)
        return lambda X: predict_logistic(model, X)

    return train
